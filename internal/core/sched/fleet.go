package sched

import (
	"xartrek/internal/core/threshold"
	"xartrek/internal/xclbin"
)

// Fleet is the generalized-topology view Algorithm 2's placement step
// scores: the ARM-class CPU candidates for software migration, the
// FPGA device fleet, and the transfer-cost context a placement policy
// may weigh. The paper's Algorithm 2 picks among exactly three targets
// (the x86 host, the ARM server, the FPGA); with a Fleet the class
// decision is unchanged — thresholds against the host load — and a
// PlacementPolicy then selects the concrete node or device inside the
// class. The nil policy is DefaultPolicy, the paper's rule:
//
//   - ARM class: the least-loaded candidate node, ties broken toward
//     the lower identifier,
//   - FPGA class: the lowest-indexed device that has the kernel
//     resident; background reconfiguration targets the lowest-indexed
//     idle device.
//
// On a single-ARM-node, single-device fleet both rules collapse to the
// paper's fixed targets; NewServer is that fleet.
type Fleet struct {
	// ARMNodes lists the identifiers of ARM-class nodes eligible for
	// software migration, in deterministic (topology) order.
	ARMNodes []int
	// Loads indexes the resident process count of each ARM candidate:
	// position i holds ARMNodes[i]. The owner keeps it current as
	// processes enter and leave the nodes' run queues (one index may
	// serve every per-entry server of a platform), so least- and
	// most-loaded picks never scan the fleet. nil on a server means
	// loads are unobservable: NewFleetServer substitutes an all-zero
	// index. Policies called directly need it set.
	Loads *LoadIndex
	// NodeCores reports the core count of a node named in ARMNodes —
	// the capacity a policy needs to turn a process count into a
	// processor-sharing slowdown. nil means capacity is unknown.
	NodeCores func(id int) int
	// MigrationRow returns the named application's uncontended one-way
	// migration cost, in seconds, from this server's entry node to each
	// ARM candidate: Popcorn state transformation plus the working set
	// over the pair's link (see cluster.TransferEstimate). Position i
	// holds ARMNodes[i]. A link-scoring policy calls it once per
	// decision; the row belongs to the fleet's owner and must not be
	// modified. nil, or a nil row for an application without a
	// profile, means transfer costs are unobservable; policies must
	// treat them as zero.
	MigrationRow func(app string) []float64
	// LinkQueue reports the number of transfers currently in flight on
	// the link between this server's entry node and the given ARM node
	// — concurrent transfers divide the link's bandwidth. nil means
	// link occupancy is unobservable.
	LinkQueue func(node int) int
	// Devices lists the FPGA fleet in deterministic (topology) order.
	// Entries must be non-nil.
	Devices []Device
	// Policy chooses concrete placements within Algorithm 2's class
	// decision; nil selects DefaultPolicy, which keeps the server
	// bit-identical to the pre-policy scheduler.
	Policy PlacementPolicy
	// NodeAvailable, when non-nil, reports whether a node named in
	// ARMNodes currently accepts new placements — it is up, not
	// draining, and reachable from this server's entry node. nil means
	// every listed node is always available. Fault-injection campaigns
	// flip this dynamically, giving the fleet elastic membership
	// without rebuilding the server: policies skip unavailable
	// candidates, and a fully unavailable ARM class degrades to the
	// empty-fleet rule (the ARM threshold acts as Never).
	NodeAvailable func(id int) bool
	// DeviceAvailable is NodeAvailable for the device fleet: whether
	// Devices[i] is currently powered and usable. nil means always.
	// A kernel whose only resident card is unavailable is treated as
	// not configured, so Algorithm 2 degrades it to CPU execution.
	DeviceAvailable func(i int) bool
}

// NodeUp reports whether an ARM candidate currently accepts
// placements (true when no availability surface is wired).
func (f *Fleet) NodeUp(id int) bool {
	return f.NodeAvailable == nil || f.NodeAvailable(id)
}

// upAt is NodeUp addressed by Loads position, the availability filter
// of the fleet's least- and most-loaded picks.
func (f *Fleet) upAt(pos int) bool { return f.NodeUp(f.ARMNodes[pos]) }

// armNode maps a Loads pick to its ARMNodes identifier.
func (f *Fleet) armNode(pos int, ok bool) (int, bool) {
	if !ok {
		return 0, false
	}
	return f.ARMNodes[pos], true
}

// DeviceUp reports whether Devices[i] is currently usable (true when
// no availability surface is wired).
func (f *Fleet) DeviceUp(i int) bool {
	return f.DeviceAvailable == nil || f.DeviceAvailable(i)
}

// NewFleetServer assembles a scheduler server over a generalized
// topology. table is the threshold table from step G; load samples the
// scheduler host's CPU load (the x86LOAD of Algorithm 2); images are
// the step F XCLBINs consulted when a kernel must be configured.
func NewFleetServer(table *threshold.Table, load LoadFunc, fleet Fleet, images []*xclbin.XCLBIN) *Server {
	if fleet.Loads == nil {
		fleet.Loads = NewLoadIndex(len(fleet.ARMNodes))
	}
	return &Server{table: table, load: load, images: images, fleet: &fleet}
}

// Policy returns the server's active placement policy (DefaultPolicy
// for nil-policy fleets).
func (s *Server) Policy() PlacementPolicy {
	if s.fleet.Policy != nil {
		return s.fleet.Policy
	}
	return DefaultPolicy{}
}

// placeDevice locates the card serving a hardware invocation ("Query
// Available HW Kernels" across the fleet): the policy's pick, or false
// with no cards.
func (s *Server) placeDevice(ctx PlacementContext) (int, bool) {
	if len(s.fleet.Devices) == 0 {
		return 0, false
	}
	return s.Policy().PickDevice(ctx, s.fleet)
}

// placeARM selects the ARM-class placement: the policy's pick, or
// false with an empty candidate list, when the caller must not choose
// the ARM class.
func (s *Server) placeARM(ctx PlacementContext) (int, bool) {
	if len(s.fleet.ARMNodes) == 0 {
		return 0, false
	}
	return s.Policy().PickARMNode(ctx, s.fleet)
}
