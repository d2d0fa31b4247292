package popcorn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// PageSize is the DSM coherence granularity, matching the 4 KiB pages
// Popcorn Linux's page-coherency protocol moves over the interconnect.
const PageSize = 4096

// DSM errors.
var (
	ErrBadNode = errors.New("popcorn: invalid DSM node id")
)

// pageState is the MSI coherence state of one page on one node.
type pageState int

const (
	pageInvalid pageState = iota
	pageShared
	pageModified
)

// DSMStats counts protocol traffic, the basis of the migration cost
// model (every remote fault moves a page over Ethernet).
type DSMStats struct {
	ReadFaults    int
	WriteFaults   int
	Invalidations int
	PagesMoved    int
	BytesMoved    int64
}

// DSM is a home-based MSI page-coherence protocol across the nodes of
// the heterogeneous-ISA machine. It provides sequentially consistent
// shared memory: a single home node per page serialises ownership
// transfers, so all nodes observe writes in a single global order.
//
// The implementation is functional (it really moves page copies and
// enforces single-writer/multi-reader invariants) and is exercised by
// the protocol tests; the simulation consumes its traffic statistics
// through MigrationEngine.
type DSM struct {
	nodes int
	// backing is the home copy of every page.
	backing map[uint64][]byte
	// state[n][page] is node n's coherence state.
	state []map[uint64]pageState
	// cached[n][page] is node n's local copy (nil unless Shared/Modified).
	cached []map[uint64][]byte
	stats  DSMStats
}

// NewDSM creates a DSM spanning n nodes.
func NewDSM(n int) *DSM {
	d := &DSM{
		nodes:   n,
		backing: make(map[uint64][]byte),
		state:   make([]map[uint64]pageState, n),
		cached:  make([]map[uint64][]byte, n),
	}
	for i := 0; i < n; i++ {
		d.state[i] = make(map[uint64]pageState)
		d.cached[i] = make(map[uint64][]byte)
	}
	return d
}

// Stats returns accumulated protocol statistics.
func (d *DSM) Stats() DSMStats { return d.stats }

// ResetStats clears protocol statistics.
func (d *DSM) ResetStats() { d.stats = DSMStats{} }

func (d *DSM) checkNode(n int) error {
	if n < 0 || n >= d.nodes {
		return fmt.Errorf("%w: %d of %d", ErrBadNode, n, d.nodes)
	}
	return nil
}

// homePage returns (creating if needed) the home copy of the page.
func (d *DSM) homePage(page uint64) []byte {
	p, ok := d.backing[page]
	if !ok {
		p = make([]byte, PageSize)
		d.backing[page] = p
	}
	return p
}

// flushModified writes any modified copy of page back to home and
// demotes the owner to shared (for a read) or invalid (for a write).
func (d *DSM) flushModified(page uint64, exceptNode int, demoteTo pageState) {
	for n := 0; n < d.nodes; n++ {
		if n == exceptNode {
			continue
		}
		if d.state[n][page] == pageModified {
			copy(d.homePage(page), d.cached[n][page])
			d.state[n][page] = demoteTo
			if demoteTo == pageInvalid {
				delete(d.cached[n], page)
				d.stats.Invalidations++
			}
			d.stats.PagesMoved++
			d.stats.BytesMoved += PageSize
		} else if demoteTo == pageInvalid && d.state[n][page] == pageShared {
			d.state[n][page] = pageInvalid
			delete(d.cached[n], page)
			d.stats.Invalidations++
		}
	}
}

// acquire obtains the page on node in the requested state, simulating
// the fault-and-fetch path.
func (d *DSM) acquire(node int, page uint64, write bool) ([]byte, error) {
	if err := d.checkNode(node); err != nil {
		return nil, err
	}
	st := d.state[node][page]
	if write {
		if st == pageModified {
			return d.cached[node][page], nil
		}
		d.stats.WriteFaults++
		d.flushModified(page, node, pageInvalid)
		local := make([]byte, PageSize)
		copy(local, d.homePage(page))
		if st != pageShared {
			d.stats.PagesMoved++
			d.stats.BytesMoved += PageSize
		}
		d.cached[node][page] = local
		d.state[node][page] = pageModified
		return local, nil
	}
	if st == pageModified || st == pageShared {
		return d.cached[node][page], nil
	}
	d.stats.ReadFaults++
	d.flushModified(page, node, pageShared)
	local := make([]byte, PageSize)
	copy(local, d.homePage(page))
	d.cached[node][page] = local
	d.state[node][page] = pageShared
	d.stats.PagesMoved++
	d.stats.BytesMoved += PageSize
	return local, nil
}

// Read8 reads an 8-byte word at addr from node's view.
func (d *DSM) Read8(node int, addr uint64) (uint64, error) {
	page, off := addr/PageSize, addr%PageSize
	if off+8 > PageSize {
		return 0, fmt.Errorf("popcorn: read straddles page boundary at %#x", addr)
	}
	p, err := d.acquire(node, page, false)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p[off:]), nil
}

// Write8 writes an 8-byte word at addr from node's view.
func (d *DSM) Write8(node int, addr uint64, v uint64) error {
	page, off := addr/PageSize, addr%PageSize
	if off+8 > PageSize {
		return fmt.Errorf("popcorn: write straddles page boundary at %#x", addr)
	}
	p, err := d.acquire(node, page, true)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(p[off:], v)
	return nil
}

// NetModel describes the interconnect carrying DSM and migration
// traffic (the 1 Gbps Ethernet between the x86 and ARM servers).
type NetModel struct {
	LatencyRTT time.Duration
	// BandwidthBps is in bytes per second.
	BandwidthBps float64
}

// EthernetGbps1 models the testbed's 1 Gbps link.
func EthernetGbps1() NetModel {
	return NetModel{LatencyRTT: 100 * time.Microsecond, BandwidthBps: 125e6}
}

// TransferTime is the time to move n bytes across the link. It
// saturates at the largest Duration instead of wrapping: a transfer too
// slow to represent — or over a link without positive bandwidth, which
// topology validation rejects — never completes.
func (nm NetModel) TransferTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	sec := float64(n) / nm.BandwidthBps
	ns := sec * float64(time.Second)
	if !(ns >= 0 && ns < math.MaxInt64) {
		return math.MaxInt64
	}
	if d := nm.LatencyRTT + time.Duration(ns); d >= nm.LatencyRTT {
		return d
	}
	return math.MaxInt64
}

// MigrationEngine combines the state transformer, the DSM traffic
// model and the interconnect model into the end-to-end cost of an
// x86→ARM (or back) execution migration.
type MigrationEngine struct {
	Transformer *Transformer
	Net         NetModel
}

// MigrationTime estimates the wall-clock cost of migrating a thread
// whose transformed state is st and whose working set is wsBytes: the
// state transformation runs on the CPU, then the state and the working
// set pages fault over to the destination node.
func (e *MigrationEngine) MigrationTime(st ProgramState, wsBytes int64) time.Duration {
	transform := e.Transformer.TransformCost(st)
	pages := (wsBytes + PageSize - 1) / PageSize
	wire := e.Net.TransferTime(pages * PageSize)
	return transform + wire
}
