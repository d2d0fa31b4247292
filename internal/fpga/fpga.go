// Package fpga models the accelerator card itself — the device side of
// the Alveo U50 that package xrt's host API drives. It provides:
//
//   - the card's HBM2 memory banks with per-bank allocation,
//   - per-kernel compute units with FIFO invocation scheduling on the
//     virtual clock, and
//   - the dynamic-region state machine (empty → configuring →
//     configured) that partial reconfiguration walks through.
//
// The split mirrors the real stack: XRT is a host library; the card has
// its own resources and state. Keeping the device model separate lets
// tests exercise device behaviours (bank exhaustion, CU back-to-back
// serialisation, reconfiguration mid-flight) without the host API.
package fpga

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"xartrek/internal/simtime"
	"xartrek/internal/xclbin"
)

// Device errors.
var (
	ErrBankFull      = errors.New("fpga: no HBM bank can hold the allocation")
	ErrReconfiguring = errors.New("fpga: dynamic region is reconfiguring")
	ErrNotConfigured = errors.New("fpga: dynamic region holds no image")
	ErrNoCU          = errors.New("fpga: no compute unit for kernel")
)

// HBMBankBytes is the capacity of one Alveo U50 HBM2 pseudo-channel
// bank (32 banks x 256 MiB = 8 GiB).
const HBMBankBytes int64 = 256 << 20

// HBMBankCount is the number of HBM2 banks on the U50.
const HBMBankCount = 32

// Bank is one HBM pseudo-channel.
type Bank struct {
	ID   int
	Size int64
	used int64
}

// Free reports the unallocated bytes in the bank.
func (b *Bank) Free() int64 { return b.Size - b.used }

// Used reports the allocated bytes in the bank.
func (b *Bank) Used() int64 { return b.used }

// segment is one contiguous piece of an allocation inside a bank.
type segment struct {
	bank *Bank
	size int64
}

// Allocation is a reservation across one or more banks. XRT stripes
// buffers larger than one pseudo-channel across banks (HBM "PC group"
// addressing), so a single logical buffer may hold several segments.
type Allocation struct {
	Size     int64
	segments []segment
	live     bool
}

// Banks lists the banks the allocation touches, in segment order.
func (a *Allocation) Banks() []*Bank {
	out := make([]*Bank, len(a.segments))
	for i, s := range a.segments {
		out[i] = s.bank
	}
	return out
}

// Release returns the allocation's bytes to its banks. Releasing twice
// is a no-op.
func (a *Allocation) Release() {
	if !a.live {
		return
	}
	a.live = false
	for _, s := range a.segments {
		s.bank.used -= s.size
	}
}

// Memory is the card's HBM with its banks.
type Memory struct {
	banks []*Bank
}

// NewMemory builds an HBM array of n banks of the given size.
func NewMemory(n int, bankBytes int64) *Memory {
	if n <= 0 {
		panic(fmt.Sprintf("fpga: non-positive bank count %d", n))
	}
	banks := make([]*Bank, n)
	for i := range banks {
		banks[i] = &Bank{ID: i, Size: bankBytes}
	}
	return &Memory{banks: banks}
}

// U50Memory returns the Alveo U50's 8 GiB HBM2 array.
func U50Memory() *Memory { return NewMemory(HBMBankCount, HBMBankBytes) }

// TotalBytes is the summed bank capacity.
func (m *Memory) TotalBytes() int64 {
	var t int64
	for _, b := range m.banks {
		t += b.Size
	}
	return t
}

// FreeBytes is the summed unallocated capacity across banks.
func (m *Memory) FreeBytes() int64 {
	var t int64
	for _, b := range m.banks {
		t += b.Free()
	}
	return t
}

// Banks returns the banks in ID order (a copy of the slice header's
// elements, not of the banks).
func (m *Memory) Banks() []*Bank {
	out := make([]*Bank, len(m.banks))
	copy(out, m.banks)
	return out
}

// Alloc reserves size bytes. A buffer that fits one bank goes to the
// emptiest bank that holds it (spreading buffers across pseudo-channels
// for bandwidth, as XRT does); a larger buffer stripes across banks in
// ID order.
func (m *Memory) Alloc(size int64) (*Allocation, error) {
	if size < 0 {
		size = 0
	}
	if size > m.FreeBytes() {
		return nil, fmt.Errorf("%w: %d bytes, %d free", ErrBankFull, size, m.FreeBytes())
	}
	var best *Bank
	for _, b := range m.banks {
		if b.Free() < size {
			continue
		}
		if best == nil || b.Free() > best.Free() {
			best = b
		}
	}
	a := &Allocation{Size: size, live: true}
	if best != nil {
		best.used += size
		a.segments = []segment{{bank: best, size: size}}
		return a, nil
	}
	remaining := size
	for _, b := range m.banks {
		if remaining == 0 {
			break
		}
		take := b.Free()
		if take == 0 {
			continue
		}
		if take > remaining {
			take = remaining
		}
		b.used += take
		a.segments = append(a.segments, segment{bank: b, size: take})
		remaining -= take
	}
	return a, nil
}

// ComputeUnit is one instantiated hardware kernel. Each kernel in an
// XCLBIN gets exactly one CU (matching the paper's Vitis flow), so
// concurrent invocations of the same kernel serialise FIFO.
type ComputeUnit struct {
	Kernel   string
	II       int
	Depth    int
	ClockMHz float64

	busyUntil time.Duration
	launches  int
	// done chains the pending completions: they end in FIFO order, so
	// only the earliest waits in the simulator's event heap. The first
	// Enqueue binds it to its simulator.
	done *simtime.Chain
}

// Latency is the pipeline time for trips iterations: fill the depth,
// then one result every II cycles.
func (cu *ComputeUnit) Latency(trips int64) time.Duration {
	if trips < 0 {
		trips = 0
	}
	cycles := float64(cu.Depth) + float64(trips)*float64(cu.II)
	sec := cycles / (cu.ClockMHz * 1e6)
	return time.Duration(sec * float64(time.Second))
}

// Launches reports how many invocations the CU has accepted.
func (cu *ComputeUnit) Launches() int { return cu.launches }

// BusyUntil reports the virtual time at which the CU drains its queue.
func (cu *ComputeUnit) BusyUntil() time.Duration { return cu.busyUntil }

// Enqueue schedules one invocation for trips iterations; done fires at
// completion. Invocations already queued on the CU run first. A CU
// runs on one simulator: every Enqueue must pass the same one.
func (cu *ComputeUnit) Enqueue(sim *simtime.Simulator, trips int64, done func()) {
	cu.launches++
	start := sim.Now()
	if cu.busyUntil > start {
		start = cu.busyUntil
	}
	end := start + cu.Latency(trips)
	cu.busyUntil = end
	if cu.done == nil {
		cu.done = sim.NewChain()
	}
	if done == nil {
		done = func() {}
	}
	// end never precedes an earlier invocation's: the chain's order.
	cu.done.At(end, done)
}

// regionState is the dynamic region's configuration state.
type regionState int

const (
	regionEmpty regionState = iota + 1
	regionConfiguring
	regionConfigured
)

// Fabric is the reconfigurable region: at most one XCLBIN image at a
// time, with its compute units instantiated while configured. A kernel
// compiled with replicated CUs (space sharing, the paper's Section 7
// future work) instantiates several units; invocations go to the least
// busy one.
type Fabric struct {
	sim   *simtime.Simulator
	plat  xclbin.Platform
	state regionState
	image *xclbin.XCLBIN
	// pending is the image being downloaded while reconfiguring —
	// what the region will hold once Program's timer fires.
	pending *xclbin.XCLBIN
	cus     map[string][]*ComputeUnit
	// lastKernel/lastUnits memoize the most recent CU lookup: a serving
	// stream invokes the same kernel on a card thousands of times
	// between reconfigurations, so the steady state skips the map.
	lastKernel string
	lastUnits  []*ComputeUnit

	reconfigs int
}

// NewFabric returns an empty dynamic region for the platform.
func NewFabric(sim *simtime.Simulator, plat xclbin.Platform) *Fabric {
	return &Fabric{sim: sim, plat: plat, state: regionEmpty}
}

// Platform returns the static platform description.
func (f *Fabric) Platform() xclbin.Platform { return f.plat }

// Reconfiguring reports whether a reconfiguration is in flight.
func (f *Fabric) Reconfiguring() bool { return f.state == regionConfiguring }

// Pending returns the image an in-flight reconfiguration is
// downloading, nil when none is in flight.
func (f *Fabric) Pending() *xclbin.XCLBIN { return f.pending }

// Image returns the configured image, or nil while empty/configuring.
func (f *Fabric) Image() *xclbin.XCLBIN {
	if f.state != regionConfigured {
		return nil
	}
	return f.image
}

// Reconfigurations counts completed and in-flight Program operations.
func (f *Fabric) Reconfigurations() int { return f.reconfigs }

// CU returns the least-busy compute unit for the named kernel of the
// configured image.
func (f *Fabric) CU(kernel string) (*ComputeUnit, error) {
	if f.state != regionConfigured {
		if f.state == regionConfiguring {
			return nil, ErrReconfiguring
		}
		return nil, ErrNotConfigured
	}
	units := f.lastUnits
	if kernel != f.lastKernel || units == nil {
		var ok bool
		units, ok = f.cus[kernel]
		if !ok || len(units) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoCU, kernel)
		}
		f.lastKernel, f.lastUnits = kernel, units
	}
	best := units[0]
	for _, cu := range units[1:] {
		if cu.BusyUntil() < best.BusyUntil() {
			best = cu
		}
	}
	return best, nil
}

// CUCount reports the number of compute units instantiated for the
// kernel (0 when not configured).
func (f *Fabric) CUCount(kernel string) int {
	if f.state != regionConfigured {
		return 0
	}
	return len(f.cus[kernel])
}

// Kernels lists the configured image's kernels in sorted order; nil
// while empty or reconfiguring.
func (f *Fabric) Kernels() []string {
	if f.state != regionConfigured {
		return nil
	}
	out := make([]string, 0, len(f.cus))
	for name := range f.cus {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasKernel reports whether the named kernel is usable right now —
// exactly when CU would succeed, answered from the region state and
// the CU map without building CU's error or scanning for the least
// busy unit. Placement asks this of every card on every request.
func (f *Fabric) HasKernel(kernel string) bool {
	return f.state == regionConfigured && len(f.cus[kernel]) > 0
}

// Program starts a partial reconfiguration with the image. During the
// reconfiguration window no kernel is available — the latency Xar-Trek
// hides by continuing on a CPU (Algorithm 2 lines 9-18). done fires
// when the image is live.
func (f *Fabric) Program(image *xclbin.XCLBIN, done func()) error {
	if f.state == regionConfiguring {
		return ErrReconfiguring
	}
	f.state = regionConfiguring
	f.image = nil
	f.pending = image
	f.cus = nil
	f.lastKernel, f.lastUnits = "", nil
	f.reconfigs++
	f.sim.After(image.ReconfigTime(f.plat), func() {
		f.state = regionConfigured
		f.image = image
		f.pending = nil
		f.cus = make(map[string][]*ComputeUnit, len(image.Kernels))
		for _, k := range image.Kernels {
			units := make([]*ComputeUnit, k.CUCount())
			for i := range units {
				units[i] = &ComputeUnit{
					Kernel:   k.KernelName,
					II:       k.II,
					Depth:    k.Depth,
					ClockMHz: k.ClockMHz,
				}
			}
			f.cus[k.KernelName] = units
		}
		if done != nil {
			done()
		}
	})
	return nil
}

// Card is the full accelerator device: fabric plus HBM.
type Card struct {
	Fabric *Fabric
	Mem    *Memory
}

// NewU50 assembles an Alveo U50 card on the simulator.
func NewU50(sim *simtime.Simulator) *Card {
	return &Card{
		Fabric: NewFabric(sim, xclbin.AlveoU50()),
		Mem:    U50Memory(),
	}
}

// NewCard assembles a card with an arbitrary platform and memory.
func NewCard(sim *simtime.Simulator, plat xclbin.Platform, mem *Memory) *Card {
	return &Card{Fabric: NewFabric(sim, plat), Mem: mem}
}
