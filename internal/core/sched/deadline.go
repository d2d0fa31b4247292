package sched

// DeadlinePolicy spends the fleet's scarce latency resources on the
// critical SLO class and lets batch traffic absorb queueing:
//
//   - Critical ARM placement minimizes estimated time-to-result with
//     the link-aware score (transfer cost amplified by link queueing
//     plus processor-sharing slowdown), so a critical migration takes
//     the fastest node even when a nearer node is slightly less
//     loaded.
//   - Batch ARM placement packs: it picks the MOST loaded available
//     node, concentrating batch queueing on nodes already busy and
//     keeping lightly loaded nodes free for the next critical
//     arrival. Ties break toward fleet order.
//   - Background reconfigurations — the dominant p99 tail source under
//     mixed hardware workloads — are only spent on critical (and
//     classless) requests; a batch request never triggers an XCLBIN
//     download and instead rides whatever is already resident.
//
// Classless traffic (empty PlacementContext.Class) behaves exactly
// like DefaultPolicy, so the policy is safe on cells without a
// workload spec. Device invocation placement is DefaultPolicy's rule
// for every class: reading a resident kernel evicts nothing, so there
// is nothing to ration.
type DeadlinePolicy struct{}

var _ PlacementPolicy = DeadlinePolicy{}

// Name implements PlacementPolicy.
func (DeadlinePolicy) Name() string { return "deadline" }

// PickARMNode implements PlacementPolicy: fastest node for the
// critical class, most-loaded available node for batch, DefaultPolicy
// for classless traffic.
func (DeadlinePolicy) PickARMNode(ctx PlacementContext, f *Fleet) (int, bool) {
	switch ctx.Class {
	case "critical":
		return LinkAwarePolicy{}.PickARMNode(ctx, f)
	case "batch":
		return f.armNode(f.Loads.Most(f.upAt))
	default:
		return DefaultPolicy{}.PickARMNode(ctx, f)
	}
}

// PickDevice implements PlacementPolicy (DefaultPolicy rule for every
// class).
func (DeadlinePolicy) PickDevice(ctx PlacementContext, f *Fleet) (int, bool) {
	return DefaultPolicy{}.PickDevice(ctx, f)
}

// ReconfigOrder implements PlacementPolicy: batch requests never spend
// a reconfiguration; critical and classless requests use the default
// idle-cards order.
func (DeadlinePolicy) ReconfigOrder(ctx PlacementContext, f *Fleet, buf []int) []int {
	if ctx.Class == "batch" {
		return buf
	}
	return DefaultPolicy{}.ReconfigOrder(ctx, f, buf)
}
