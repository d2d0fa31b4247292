package main

import "strings"

// The layers a cell's CPU profile folds into. Every sample lands in
// exactly one of them; "other" holds samples with no matching frame
// (the Go scheduler, campaign plumbing, the benchmark itself).
var layers = []string{
	"source", "entry", "decide", "threshold", "engine", "psserver", "lifecycle",
	"link", "fpga", "digest", "merge", "faults", "elastic", "gc", "other",
}

// layerRule charges frames whose function name (with the module's
// "xartrek/internal/" prefix removed) equals name, or starts with it
// when prefix is set, to layer. An empty layer is an explicit
// pass-through: the frame is skipped and the sample falls to its
// caller. Rules are tried in order, so specific rules precede the
// package-wide ones they carve out of.
type layerRule struct {
	name   string
	prefix bool
	layer  string
}

func exact(name, layer string) layerRule  { return layerRule{name, false, layer} }
func prefix(name, layer string) layerRule { return layerRule{name, true, layer} }

var layerRules = []layerRule{
	// Load samples and availability gates run inside the entry pick
	// and the ARM scan; they are charged to whichever of the two called
	// them. The fault checks among them are no-ops on fault-free cells.
	exact("exper.(*Platform).nodeLoad", ""),
	exact("cluster.(*Node).Load", ""),
	exact("simtime.(*PSServer).Active", ""),
	exact("exper.(*Platform).entryEligible", ""),
	exact("exper.(*Platform).elasticEligible", ""),
	exact("exper.(*Platform).faultNodeAvailable", ""),
	exact("exper.(*Platform).deviceUp", ""),
	exact("exper.(*faultRuntime).placeable", ""),
	exact("exper.(*faultRuntime).usableNode", ""),
	exact("exper.(*faultRuntime).reachableFrom", ""),
	exact("exper.(*faultRuntime).pathOK", ""),
	exact("exper.(*faultRuntime).deviceUp", ""),
	exact("exper.pairOf", ""),
	exact("exper.(*Platform).migrationCost", ""),
	exact("cluster.(*Cluster).NodesOfArch", ""),
	// Sketch internals shared by Add and Merge.
	exact("quantile.(*Sketch).compress", ""),
	exact("quantile.(*Sketch).threshold", ""),
	exact("quantile.(*Sketch).grow", ""),

	prefix("exper.(*poissonSource).", "source"),
	prefix("exper.(*sliceSource).", "source"),
	prefix("exper.(*tenantSource).", "source"),
	prefix("exper.ServingConfig.", "source"),
	prefix("tenancy.", "source"),

	exact("exper.(*Platform).leastLoadedX86", "entry"),
	// The per-instant inject closure and its Feed pull.
	prefix("exper.runServingCore.func", "entry"),

	exact("core/sched.(*Server).Report", "threshold"),
	prefix("core/threshold.", "threshold"),
	prefix("core/sched.", "decide"),

	prefix("simtime.(*PSServer).", "psserver"),
	prefix("simtime.(*PSJob).", "psserver"),
	prefix("simtime.(*jobHeap).", "psserver"),
	exact("simtime.jobBefore", "psserver"),
	prefix("cluster.(*Node).Exec", "psserver"),
	prefix("simtime.", "engine"),
	exact("exper.(*Platform).RunFor", "engine"),

	prefix("exper.(*launch).", "lifecycle"),
	prefix("exper.(*armRun).", "lifecycle"),
	prefix("exper.(*Platform).LaunchApp", "lifecycle"),
	prefix("exper.(*Platform).getLaunch", "lifecycle"),
	prefix("exper.(*Platform).putLaunch", "lifecycle"),
	prefix("exper.(*Platform).getARMRun", "lifecycle"),
	prefix("exper.(*Platform).putARMRun", "lifecycle"),
	prefix("exper.(*Platform).runPrologue", "lifecycle"),
	prefix("exper.(*Platform).runKernel", "lifecycle"),
	prefix("exper.(*Platform).exec", "lifecycle"),
	prefix("exper.(*Platform).entryExec", "lifecycle"),
	prefix("exper.(*Platform).x86Exec", "lifecycle"),
	exact("exper.(*Platform).armNode", "lifecycle"),
	exact("exper.(*Platform).serverFor", "lifecycle"),
	exact("exper.(*Platform).leastLoadedARM", "lifecycle"),

	prefix("cluster.(*Link).", "link"),
	exact("cluster.(*Cluster).Link", "link"),
	exact("cluster.(*Cluster).TransferEstimate", "link"),
	exact("cluster.pairKey", "link"),
	prefix("popcorn.NetModel.", "link"),

	exact("exper.(*Platform).preconfigure", "fpga"),
	exact("exper.(*Platform).images", "fpga"),
	prefix("xrt.", "fpga"),
	prefix("fpga.", "fpga"),
	prefix("xclbin.", "fpga"),

	prefix("quantile.(*Sketch).Merge", "merge"),
	exact("quantile.Merged", "merge"),
	exact("exper.mergeLatDigests", "merge"),
	exact("exper.mergeShardResults", "merge"),
	exact("exper.mergeTenancy", "merge"),
	prefix("exper.(*latDigest).", "digest"),
	exact("exper.(*tenantRun).observe", "digest"),
	prefix("exper.(*tenantRun).bind.func", "digest"),
	prefix("exper.runServingCore.(*tenantRun).bind.func", "digest"),
	prefix("quantile.(*Sketch).", "digest"),

	prefix("exper.(*faultRuntime).", "faults"),
	exact("exper.newFaultRuntime", "faults"),
	prefix("faults.", "faults"),

	prefix("exper.(*elasticRuntime).", "elastic"),
	exact("exper.newElasticRuntime", "elastic"),
	prefix("elastic.", "elastic"),

	// Allocation and garbage collection.
	prefix("runtime.gc", "gc"),
	prefix("gcWriteBarrier", "gc"),
	prefix("runtime.mallocgc", "gc"),
	exact("runtime.newobject", "gc"),
	exact("runtime.newarray", "gc"),
	exact("runtime.makeslice", "gc"),
	exact("runtime.growslice", "gc"),
	exact("runtime.scanobject", "gc"),
	exact("runtime.scanblock", "gc"),
	prefix("runtime.markroot", "gc"),
	exact("runtime.greyobject", "gc"),
	exact("runtime.findObject", "gc"),
	prefix("runtime.heapSetType", "gc"),
	exact("runtime.bgsweep", "gc"),
	exact("runtime.sweepone", "gc"),
	prefix("runtime.bgscavenge", "gc"),
	prefix("runtime.wbBuf", "gc"),
	prefix("runtime.(*mheap).", "gc"),
	prefix("runtime.(*mcache).", "gc"),
	prefix("runtime.(*mcentral).", "gc"),
	prefix("runtime.(*mspan).", "gc"),
	prefix("runtime.(*gcWork).", "gc"),
	prefix("runtime.(*sweepLocked).", "gc"),
}

// frameLayer reports the layer a single frame matches: ok is false
// when no rule matches, and layer is empty for a pass-through rule.
func frameLayer(fn string) (layer string, ok bool) {
	fn = strings.TrimPrefix(fn, "xartrek/internal/")
	for _, r := range layerRules {
		if fn == r.name || (r.prefix && strings.HasPrefix(fn, r.name)) {
			return r.layer, true
		}
	}
	return "", false
}

// stackLayer charges a stack (leaf first) to the innermost frame that
// matches a layer, or to "other" when none does.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l, ok := frameLayer(fn); ok && l != "" {
			return l
		}
	}
	return "other"
}

// foldProfile sums sample values per layer. The returned map holds an
// entry for every layer in layers (zero when no sample landed there)
// and total is the sum over all samples.
func foldProfile(samples []sample) (byLayer map[string]int64, total int64) {
	byLayer = make(map[string]int64, len(layers))
	for _, l := range layers {
		byLayer[l] = 0
	}
	for _, s := range samples {
		byLayer[stackLayer(s.stack)] += s.value
		total += s.value
	}
	return byLayer, total
}
