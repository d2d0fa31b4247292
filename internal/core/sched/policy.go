package sched

import (
	"xartrek/internal/core/threshold"
)

// PlacementContext carries the per-request information a placement
// policy scores with: the application and kernel being placed, the
// threshold record (per-target execution-time estimates from step G /
// Algorithm 1), and the host load sample Algorithm 2 read for its class
// decision.
type PlacementContext struct {
	App    string
	Kernel string
	// Class is the requesting cohort's SLO class ("critical", "batch",
	// or empty for classless traffic); class-aware policies spend
	// scarce resources — reconfigurations, low-latency nodes — on the
	// critical class.
	Class string
	// HostLoad is the scheduler host's sampled x86LOAD at decision
	// time.
	HostLoad int
	// Record is the application's threshold row; its ARMExec/FPGAExec
	// estimates let a policy convert queue lengths into time.
	Record threshold.Record
}

// PlacementPolicy chooses concrete placements *within* the class
// Algorithm 2 decided. The class decision itself — x86 vs ARM vs FPGA
// via the threshold table — is fixed; a policy only answers "which ARM
// node", "which FPGA card", and "which card should take a background
// reconfiguration", scoring candidates by load, kernel residency and
// transfer context (Fleet.MigrationRow / Fleet.LinkQueue).
//
// Implementations must be deterministic: identical fleet state must
// yield identical picks, and ties must break toward the candidate
// earlier in fleet order, or experiment output stops being
// reproducible. Policies are called with the server's mutex held and
// must not call back into the server.
//
// The class is decided before placement: Algorithm 2 calls
// PickARMNode only when the host load exceeds the application's ARM
// threshold, and PickDevice only when it exceeds the FPGA threshold.
// Both picks must therefore have no side effects: a request that
// skips a pick must leave the fleet as one that made it and discarded
// the answer. (Fleet surfaces that build state on first use, such as
// a lazily created transfer row or link, qualify when the state they
// build does not depend on when it was built.)
type PlacementPolicy interface {
	// Name identifies the policy in reports and campaign tables.
	Name() string
	// PickARMNode selects the software-migration target among
	// f.ARMNodes, which the server guarantees is non-empty. The
	// returned identifier must come from f.ARMNodes; ok=false rejects
	// the ARM class for this request (the threshold then acts as
	// Never).
	PickARMNode(ctx PlacementContext, f *Fleet) (node int, ok bool)
	// PickDevice selects the card that serves a hardware invocation of
	// ctx.Kernel; ok=false means no card has the kernel resident right
	// now. The returned index must name a device with the kernel
	// resident.
	PickDevice(ctx PlacementContext, f *Fleet) (device int, ok bool)
	// ReconfigOrder appends to buf the device indices a background
	// XCLBIN download should try, most preferred first. Cards currently
	// reconfiguring should be omitted; the server skips them (and cards
	// whose Program call fails) defensively either way. Returning an
	// empty slice defers the reconfiguration.
	ReconfigOrder(ctx PlacementContext, f *Fleet, buf []int) []int
}

// DefaultPolicy is the paper's placement rule, extracted verbatim from
// the pre-policy scheduler and pinned bit-identical to it by the
// regression fixtures:
//
//   - ARM class: the least-loaded candidate node, ties broken toward
//     the node earlier in fleet order (the lower identifier under the
//     experiment platforms),
//   - FPGA class: the lowest-indexed card with the kernel resident,
//   - background reconfiguration: idle cards in index order.
//
// On a single-ARM-node, single-device fleet every rule collapses to
// the paper's fixed targets.
type DefaultPolicy struct{}

var _ PlacementPolicy = DefaultPolicy{}

// Name implements PlacementPolicy.
func (DefaultPolicy) Name() string { return "default" }

// PickARMNode implements PlacementPolicy: least loaded among the
// available candidates, ties toward fleet order. With every candidate
// unavailable it rejects the ARM class.
func (DefaultPolicy) PickARMNode(_ PlacementContext, f *Fleet) (int, bool) {
	return f.armNode(f.Loads.Least(f.upAt))
}

// PickDevice implements PlacementPolicy: lowest-indexed available card
// with the kernel resident.
func (DefaultPolicy) PickDevice(ctx PlacementContext, f *Fleet) (int, bool) {
	for i, d := range f.Devices {
		if f.DeviceUp(i) && d.HasKernel(ctx.Kernel) {
			return i, true
		}
	}
	return 0, false
}

// ReconfigOrder implements PlacementPolicy: idle available cards in
// index order.
func (DefaultPolicy) ReconfigOrder(_ PlacementContext, f *Fleet, buf []int) []int {
	for i, d := range f.Devices {
		if !f.DeviceUp(i) || d.Reconfiguring() {
			continue
		}
		buf = append(buf, i)
	}
	return buf
}

// LinkAwarePolicy weighs migration transfer time against queueing when
// placing the ARM class: a slow cross-rack hop repels placement even
// from a lightly loaded node, and a link already saturated with other
// migrations' transfers repels placement onto nodes behind it. Device
// placement is unchanged from DefaultPolicy — every card hangs off the
// host's PCIe, so card choice carries no link cost.
//
// The score is an estimated time-to-result for the candidate node, in
// seconds:
//
//	transfer × (1 + linkQueue) + ARMExec × congestion(load, cores)
//
// where transfer is the uncontended migration cost from the entry node
// (the Fleet.MigrationRow entry: state transformation plus the working
// set over the pair's link), linkQueue the number of in-flight
// transfers sharing that link (each divides its bandwidth), and
// congestion the processor-sharing slowdown max(1, (load+1)/cores).
// Ties break toward the node earlier in fleet order. Fleet surfaces
// the policy cannot observe (nil MigrationRow/LinkQueue/NodeCores)
// contribute nothing, so on a fleet without transfer context the
// policy degrades to least-loaded.
type LinkAwarePolicy struct{}

var _ PlacementPolicy = LinkAwarePolicy{}

// Name implements PlacementPolicy.
func (LinkAwarePolicy) Name() string { return "link-aware" }

// PickARMNode implements PlacementPolicy. Unavailable candidates are
// skipped; with every candidate unavailable the ARM class is rejected.
//
// The score does not rise with load alone — transfer cost and link
// occupancy can outweigh it — so this pick scans every candidate
// rather than walking the load index. The application's transfer row
// is read once per decision, not per candidate.
func (LinkAwarePolicy) PickARMNode(ctx PlacementContext, f *Fleet) (int, bool) {
	var row []float64
	if f.MigrationRow != nil {
		row = f.MigrationRow(ctx.App)
	}
	armExec := ctx.Record.ARMExec.Seconds()
	best, bestScore, found := 0, 0.0, false
	for pos, id := range f.ARMNodes {
		if !f.NodeUp(id) {
			continue
		}
		if s := linkAwareScore(f, row, armExec, pos, id, f.Loads.Load(pos)); !found || s < bestScore {
			best, bestScore, found = id, s, true
		}
	}
	return best, found
}

// linkAwareScore estimates the time-to-result, in seconds, of
// migrating onto the candidate at fleet position pos (node id,
// carrying load resident processes); row is the application's
// transfer row, nil when transfer costs are unobservable.
func linkAwareScore(f *Fleet, row []float64, armExec float64, pos, id, load int) float64 {
	transfer, queue := 0.0, 0
	if row != nil {
		transfer = row[pos]
		if f.LinkQueue != nil {
			queue = f.LinkQueue(id)
		}
	}
	congestion := 1.0
	if f.NodeCores != nil {
		if cores := f.NodeCores(id); cores > 0 {
			if c := float64(load+1) / float64(cores); c > 1 {
				congestion = c
			}
		}
	} else {
		// Without a capacity surface fall back to a pure least-loaded
		// bias, matching DefaultPolicy's ordering.
		congestion = float64(load + 1)
	}
	return transfer*float64(1+queue) + armExec*congestion
}

// PickDevice implements PlacementPolicy (DefaultPolicy rule).
func (p LinkAwarePolicy) PickDevice(ctx PlacementContext, f *Fleet) (int, bool) {
	return DefaultPolicy{}.PickDevice(ctx, f)
}

// ReconfigOrder implements PlacementPolicy (DefaultPolicy rule).
func (p LinkAwarePolicy) ReconfigOrder(ctx PlacementContext, f *Fleet, buf []int) []int {
	return DefaultPolicy{}.ReconfigOrder(ctx, f, buf)
}

// AffinityPolicy pins each hardware kernel to one dedicated card: the
// image set is pre-partitioned across the FPGA fleet and a kernel's
// XCLBIN only ever lands on its assigned card, so two hot kernels
// stop evicting each other from a shared card and reconfiguration
// churn — the dominant p99 tail under mixed hardware workloads —
// drops. Invocation prefers the pinned card but will use any card
// that already has the kernel resident (reading a resident kernel
// evicts nothing). ARM placement is DefaultPolicy's least-loaded rule.
type AffinityPolicy struct {
	// pin maps a kernel name to its dedicated card index.
	pin map[string]int
}

var _ PlacementPolicy = (*AffinityPolicy)(nil)

// NewAffinityPolicy builds an affinity policy over a kernel→card
// assignment (see exper's image partitioning, which round-robins the
// compiled image set across the fleet). Kernels missing from the map
// fall back to DefaultPolicy behaviour.
func NewAffinityPolicy(pins map[string]int) *AffinityPolicy {
	p := &AffinityPolicy{pin: make(map[string]int, len(pins))}
	for k, v := range pins {
		p.pin[k] = v
	}
	return p
}

// Pinned reports the kernel's dedicated card, ok=false when the kernel
// is unpinned.
func (p *AffinityPolicy) Pinned(kernel string) (int, bool) {
	dev, ok := p.pin[kernel]
	return dev, ok
}

// Name implements PlacementPolicy.
func (p *AffinityPolicy) Name() string { return "affinity" }

// PickARMNode implements PlacementPolicy (DefaultPolicy rule).
func (p *AffinityPolicy) PickARMNode(ctx PlacementContext, f *Fleet) (int, bool) {
	return DefaultPolicy{}.PickARMNode(ctx, f)
}

// PickDevice implements PlacementPolicy: the pinned card when it is
// available with the kernel resident, else any available resident card
// (lowest index).
func (p *AffinityPolicy) PickDevice(ctx PlacementContext, f *Fleet) (int, bool) {
	if dev, ok := p.pin[ctx.Kernel]; ok && dev >= 0 && dev < len(f.Devices) && f.DeviceUp(dev) && f.Devices[dev].HasKernel(ctx.Kernel) {
		return dev, true
	}
	return DefaultPolicy{}.PickDevice(ctx, f)
}

// ReconfigOrder implements PlacementPolicy: only the pinned card takes
// the download; a busy or unavailable pinned card defers the
// reconfiguration rather than churning another kernel's card. Unpinned
// kernels fall back to the default order.
func (p *AffinityPolicy) ReconfigOrder(ctx PlacementContext, f *Fleet, buf []int) []int {
	dev, ok := p.pin[ctx.Kernel]
	if !ok {
		return DefaultPolicy{}.ReconfigOrder(ctx, f, buf)
	}
	if dev >= 0 && dev < len(f.Devices) && f.DeviceUp(dev) && !f.Devices[dev].Reconfiguring() {
		buf = append(buf, dev)
	}
	return buf
}
