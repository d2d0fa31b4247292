// Package cluster models the evaluation hardware as a configurable
// heterogeneous topology: N CPU servers of mixed ISA classes with
// per-machine core counts and cost models, M FPGA devices, and a
// per-pair interconnect model, plus the process-count load metric the
// Xar-Trek scheduler reads. The paper's fixed testbed — a Dell 7920 x86
// server (Xeon Bronze 3104, 6 cores, 1.7 GHz), a Cavium ThunderX ARM
// server (96 cores, 2 GHz), one Alveo U50 and the 1 Gbps Ethernet
// between the servers — is just the default, PaperTopology().
package cluster

import (
	"fmt"
	"time"

	"xartrek/internal/isa"
	"xartrek/internal/popcorn"
	"xartrek/internal/simtime"
)

// Machine describes one server's compute capability.
type Machine struct {
	Name  string
	Arch  isa.Arch
	Cores int
	Cost  *isa.CostModel
}

// X86Server returns the paper's x86 host (Xeon Bronze 3104).
func X86Server() Machine {
	return Machine{Name: "dell7920", Arch: isa.X86_64, Cores: 6, Cost: isa.X86CostModel()}
}

// ARMServer returns the paper's ARM server (Cavium ThunderX).
func ARMServer() Machine {
	return Machine{Name: "thunderx", Arch: isa.ARM64, Cores: 96, Cost: isa.ARMCostModel()}
}

// Node is a machine with its processor-sharing run queue.
type Node struct {
	Machine
	Pool *simtime.PSServer
	// Index is the node's position in Cluster.Nodes — the identifier
	// the scheduler's placement step uses.
	Index int
}

// Exec runs work (exclusive single-core time) on the node; done fires
// at completion under the current multiprogramming level.
func (n *Node) Exec(work time.Duration, done func()) *simtime.PSJob {
	return n.Pool.Submit(work, done)
}

// ExecTransient is Exec without a handle: the job cannot be cancelled,
// and the pool recycles its struct after completion. The allocation-
// free path for callers that discard Exec's return value.
func (n *Node) ExecTransient(work time.Duration, done func()) {
	n.Pool.SubmitTransient(work, done)
}

// Load reports the number of resident compute processes — the CPU-load
// metric the paper's scheduler samples (Section 4, Table 3).
func (n *Node) Load() int { return n.Pool.Active() }

// Link is the shared-capacity model of one node-pair interconnect:
// concurrent transfers and DSM fault traffic divide the link bandwidth
// (processor-sharing with capacity 1). Submit link work to PS as the
// uncontended transfer time; completion reflects contention. A pooled
// link serves its pair only while a transfer is in flight (see
// Cluster.Link).
type Link struct {
	Net popcorn.NetModel
	PS  *simtime.PSServer
	// a and b are the pair the link serves, nil while it sits on its
	// cluster's free list.
	a, b *Node
}

// Pair reports the nodes the link serves, nil while the link is free.
func (l *Link) Pair() (a, b *Node) { return l.a, l.b }

// Cluster is a topology materialised on a simulator: every node gets a
// processor-sharing run queue, and a node pair gets a shared link
// while a transfer crosses it.
type Cluster struct {
	Sim  *simtime.Simulator
	Topo Topology
	// Nodes holds every CPU node in topology order.
	Nodes []*Node
	// X86 is the scheduler host — the first x86-class node. Processes
	// start here and the paper's load metric samples it.
	X86 *Node
	// ARM is the first ARM-class node (nil in CPU-homogeneous
	// topologies); the single-ARM-server view of the paper testbed.
	ARM *Node
	// Eth is the interconnect model between the host and ARM (the
	// paper's 1 Gbps Ethernet); DefaultNet when no ARM node exists.
	Eth popcorn.NetModel
	// EthLink is the host-ARM shared link, nil without an ARM node.
	EthLink *simtime.PSServer
	// links is the dense triangular pair table: the link between nodes
	// lo < hi sits at pairSlot(lo, hi). A slot holds a link from the
	// Link call that submits the pair's first transfer until its last
	// transfer leaves, so a fleet pays for the pairs with transfers in
	// flight, not the pairs its requests ever crossed.
	links []*Link
	// free is the LIFO pool of idle link servers; servers lists every
	// link server allocated, the pinned host-ARM one first.
	free, servers []*Link
	// overrides holds each LinkSpec model by pair slot; nil without
	// overrides.
	overrides map[int]popcorn.NetModel
	// byArch caches the per-ISA-class node lists (topology order).
	// Topologies are immutable once materialised, so the serving front
	// end's per-arrival least-loaded scan reads a prebuilt slice
	// instead of filtering — and allocating — on every request.
	byArch map[isa.Arch][]*Node
}

// New assembles the paper's testbed on the given simulator.
func New(sim *simtime.Simulator) *Cluster {
	c, err := FromTopology(sim, PaperTopology())
	if err != nil {
		// PaperTopology is statically valid.
		panic("cluster: paper topology invalid: " + err.Error())
	}
	return c
}

// FromTopology materialises a topology on the simulator.
func FromTopology(sim *simtime.Simulator, topo Topology) (*Cluster, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	pairs := len(topo.Nodes) * (len(topo.Nodes) - 1) / 2
	c := &Cluster{Sim: sim, Topo: topo, links: make([]*Link, pairs), byArch: make(map[isa.Arch][]*Node)}
	for i, spec := range topo.Nodes {
		m, err := spec.machine()
		if err != nil {
			return nil, err
		}
		n := &Node{Machine: m, Pool: simtime.NewPSServer(sim, float64(m.Cores)), Index: i}
		c.Nodes = append(c.Nodes, n)
		c.byArch[m.Arch] = append(c.byArch[m.Arch], n)
		if c.X86 == nil && m.Arch == isa.X86_64 {
			c.X86 = n
		}
		if c.ARM == nil && m.Arch == isa.ARM64 {
			c.ARM = n
		}
	}
	if len(topo.Links) > 0 {
		byName := make(map[string]int, len(topo.Nodes))
		for i, spec := range topo.Nodes {
			byName[spec.Name] = i
		}
		c.overrides = make(map[int]popcorn.NetModel, len(topo.Links))
		for _, l := range topo.Links {
			c.overrides[pairSlot(byName[l.A], byName[l.B])] = l.Net
		}
	}
	c.Eth = topo.DefaultNet
	if c.ARM != nil {
		// EthLink gives its server out for good, so the host-ARM link
		// is pinned: it has no observer and never leaves its slot.
		slot := pairSlot(c.X86.Index, c.ARM.Index)
		hostARM := &Link{Net: c.net(slot), PS: simtime.NewPSServer(sim, 1), a: c.X86, b: c.ARM}
		c.links[slot] = hostARM
		c.servers = append(c.servers, hostARM)
		c.Eth = hostARM.Net
		c.EthLink = hostARM.PS
	}
	return c, nil
}

// pairSlot is the dense-table position of an unordered index pair:
// pair (lo, hi) with lo < hi sits at hi*(hi-1)/2 + lo.
func pairSlot(a, b int) int {
	if a > b {
		a, b = b, a
	}
	return b*(b-1)/2 + a
}

// net resolves a pair slot's interconnect model: its LinkSpec
// override, or the topology's default.
func (c *Cluster) net(slot int) popcorn.NetModel {
	if net, ok := c.overrides[slot]; ok {
		return net
	}
	return c.Topo.DefaultNet
}

// Link returns the shared interconnect between two nodes. A pair that
// has none takes an idle server from the cluster's pool, allocating
// only when the pool is empty, with the pair's LinkSpec override
// resolved; when the link's last transfer leaves, by completion or
// Cancel, the server goes back to the pool. So no caller may keep a
// link across events: fetch it in the event that submits to it. A
// reused server is in exactly the state a fresh one would be in at
// that instant: an idle server has no pending event, rebases its
// virtual clock when its next busy period starts, and an idle advance
// only moves its time stamp.
func (c *Cluster) Link(a, b *Node) *Link {
	if a.Index == b.Index {
		panic(fmt.Sprintf("cluster: self-link on node %s", a.Name))
	}
	slot := pairSlot(a.Index, b.Index)
	if l := c.links[slot]; l != nil {
		return l
	}
	var l *Link
	if n := len(c.free); n > 0 {
		l = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		l = &Link{PS: simtime.NewPSServer(c.Sim, 1)}
		l.PS.OnActive(func(delta int) {
			if delta < 0 && l.PS.Active() == 0 {
				c.release(l)
			}
		})
		c.servers = append(c.servers, l)
	}
	l.Net, l.a, l.b = c.net(slot), a, b
	c.links[slot] = l
	return l
}

// release clears an idle link's pair slot and returns its server to
// the pool.
func (c *Cluster) release(l *Link) {
	c.links[pairSlot(l.a.Index, l.b.Index)] = nil
	l.a, l.b = nil, nil
	c.free = append(c.free, l)
}

// Queued reports the number of transfers in flight between two nodes:
// 0 for a pair without a link, and for a node with itself. Concurrent
// transfers divide a link's bandwidth, so a placement policy weighing
// transfer time should inflate its estimate by the occupancy.
func (c *Cluster) Queued(a, b *Node) int {
	if a.Index == b.Index {
		return 0
	}
	if l := c.links[pairSlot(a.Index, b.Index)]; l != nil {
		return l.PS.Active()
	}
	return 0
}

// LinkServers lists every link server the cluster has allocated, held
// or idle, the pinned host-ARM one first. The pool allocates only when
// it is empty, so this is the most links ever held at once. The
// simulation never reads it.
func (c *Cluster) LinkServers() []*Link { return c.servers }

// TransferEstimate is the cluster's transfer-cost query surface:
// the estimated uncontended time to move n bytes between two nodes
// over their pair link, resolving any LinkSpec override. The payload
// is whatever a policy is costing — a migration's DSM working set, a
// state-transformation snapshot, or an XCLBIN image staged to a remote
// host. A same-node "transfer" costs zero (no link is crossed).
// Contention is not folded in; combine with Queued when the current
// occupancy matters. It creates no link.
func (c *Cluster) TransferEstimate(a, b *Node, n int64) time.Duration {
	if a.Index == b.Index {
		return 0
	}
	return c.net(pairSlot(a.Index, b.Index)).TransferTime(n)
}

// NodesOfArch lists the nodes of one ISA class in topology order.
// The returned slice is the cluster's cached copy; callers must not
// mutate it.
func (c *Cluster) NodesOfArch(arch isa.Arch) []*Node {
	return c.byArch[arch]
}

// TotalCores reports the CPU core count across all nodes (the paper
// testbed's 6 + 96 = 102).
func (c *Cluster) TotalCores() int { return c.Topo.TotalCPUCores() }

// LoadClass is the paper's Table 3 classification.
type LoadClass int

// Load classes per Table 3.
const (
	LoadLow LoadClass = iota + 1
	LoadMedium
	LoadHigh
)

// String implements fmt.Stringer.
func (l LoadClass) String() string {
	switch l {
	case LoadLow:
		return "low"
	case LoadMedium:
		return "medium"
	case LoadHigh:
		return "high"
	default:
		return "unknown"
	}
}

// ClassifyLoad maps a process count to Table 3's ranges, generalised to
// the topology's core counts: low below the x86-class core count,
// medium up to the total CPU core count, high beyond.
func (c *Cluster) ClassifyLoad(processes int) LoadClass {
	switch {
	case processes < c.Topo.CoresOfArch(isa.X86_64):
		return LoadLow
	case processes <= c.TotalCores():
		return LoadMedium
	default:
		return LoadHigh
	}
}
