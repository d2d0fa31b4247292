package xartrek

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (Section 4) under `go test -bench`. Each
// benchmark runs the corresponding experiment end to end on the
// simulated testbed and reports the headline metric the paper plots,
// via b.ReportMetric, alongside the usual ns/op (wall time to
// regenerate the experiment).
//
// Shrunken parameters keep a full -bench=. sweep under a few minutes;
// cmd/xarbench runs the experiments at the paper's full scale.
//
// The four BenchmarkAblation* entries quantify the design decisions
// DESIGN.md §5 calls out by disabling them one at a time.

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/sched"
	"xartrek/internal/core/threshold"
	"xartrek/internal/elastic"
	"xartrek/internal/exper"
	"xartrek/internal/faults"
	"xartrek/internal/fpga"
	"xartrek/internal/mir"
	"xartrek/internal/simtime"
	"xartrek/internal/tenancy"
	"xartrek/internal/workloads"
	"xartrek/internal/xclbin"
)

const benchSeed = 2021

var (
	benchOnce sync.Once
	benchArts *exper.Artifacts
	benchErr  error
)

func benchArtifacts(b *testing.B) *exper.Artifacts {
	b.Helper()
	benchOnce.Do(func() {
		apps, err := workloads.Registry()
		if err != nil {
			benchErr = err
			return
		}
		benchArts, benchErr = exper.BuildArtifacts(apps)
	})
	if benchErr != nil {
		b.Fatalf("artifacts: %v", benchErr)
	}
	return benchArts
}

// benchmarkInterp measures the MIR execution engines on one workload
// kernel: each iteration is one selected-function invocation over
// `trips` loop trips against a warm arena — the inner loop of the
// profiling step and of every simulated kernel execution. The
// interpreter is constructed once, so the compiled engine's ns/op is
// the steady-state dispatch cost (the compile itself is amortised into
// the first iteration, exactly as in the profiling loops).
func benchmarkInterp(b *testing.B, newApp func() (*workloads.App, error), legacy bool) {
	app, err := newApp()
	if err != nil {
		b.Fatal(err)
	}
	fn := app.Spec.Fn
	ip := mir.NewInterp(1 << 16)
	ip.Legacy = legacy
	base, err := ip.Mem.Alloc(8 * 2048)
	if err != nil {
		b.Fatal(err)
	}
	const trips = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ip.Run(fn, base, base, trips); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ip.Stats().Steps)/float64(b.N), "steps/op")
}

// BenchmarkInterp* track the compiled register-file engine on the
// three kernel families the paper migrates (sparse FP gather, integer
// cascade, bitwise popcount); the Legacy variants keep the tree-walker
// measurable so the speedup stays visible in the BENCH trajectory.
func BenchmarkInterpCG(b *testing.B)      { benchmarkInterp(b, workloads.NewCGA, false) }
func BenchmarkInterpFaceDet(b *testing.B) { benchmarkInterp(b, workloads.NewFaceDet320, false) }
func BenchmarkInterpDigit(b *testing.B)   { benchmarkInterp(b, workloads.NewDigit2000, false) }

func BenchmarkInterpLegacyCG(b *testing.B)      { benchmarkInterp(b, workloads.NewCGA, true) }
func BenchmarkInterpLegacyFaceDet(b *testing.B) { benchmarkInterp(b, workloads.NewFaceDet320, true) }
func BenchmarkInterpLegacyDigit(b *testing.B)   { benchmarkInterp(b, workloads.NewDigit2000, true) }

// benchmarkServing measures one open-loop serving run per iteration:
// the end-to-end cost of the discrete-event core (simulator queue +
// per-node processor-sharing servers) under sustained traffic. The
// saturated cells overload the topology so resident-job counts grow
// throughout the horizon — the regime where a per-event full scan of
// the run queue turns quadratic.
func benchmarkServing(b *testing.B, topo cluster.Topology, rate float64) {
	arts := benchArtifacts(b)
	cfg := exper.ServingConfig{
		Topo:       topo,
		Mode:       exper.ModeXarTrek,
		RatePerSec: rate,
		Duration:   30 * time.Second,
		Seed:       benchSeed,
	}
	b.ReportAllocs()
	b.ResetTimer()
	var completed int
	for i := 0; i < b.N; i++ {
		r, err := exper.RunServing(arts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		completed = r.Completed
	}
	b.ReportMetric(float64(completed), "completed")
}

// BenchmarkServing* track the serving-campaign cost on the paper
// testbed and a 32-node rack, each at a low rate (the topology keeps
// up) and a saturated rate (arrivals outpace capacity and jobs pile
// up). The saturated rack is the cluster-scale regime the ROADMAP
// north star targets.
func BenchmarkServingPaperLow(b *testing.B) {
	benchmarkServing(b, cluster.PaperTopology(), 2)
}

func BenchmarkServingPaperSaturated(b *testing.B) {
	benchmarkServing(b, cluster.PaperTopology(), 24)
}

func BenchmarkServingRack32Low(b *testing.B) {
	benchmarkServing(b, cluster.ScaleOutTopology("rack32", 8, 24, 4), 16)
}

func BenchmarkServingRack32Saturated(b *testing.B) {
	benchmarkServing(b, cluster.ScaleOutTopology("rack32", 8, 24, 4), 4000)
}

// benchmarkPSServerChurn measures submit/complete churn against a
// server that already holds `resident` long-running jobs: each
// iteration submits one short job and steps the simulator until its
// completion callback fires. ns/op is therefore the per-event cost at
// multiprogramming level n — O(n) for the legacy full-scan server,
// O(log n) for the virtual-time one. The virtual-time server takes its
// jobs through SubmitTransient, the pooled path serving requests use;
// the legacy reference has only Submit.
func benchmarkPSServerChurn(b *testing.B, resident int, legacy bool) {
	sim := simtime.New()
	var submit func(work time.Duration, done func())
	if legacy {
		ps := simtime.NewLegacyPSServer(sim, 6)
		submit = func(w time.Duration, done func()) { ps.Submit(w, done) }
	} else {
		ps := simtime.NewPSServer(sim, 6)
		submit = func(w time.Duration, done func()) { ps.SubmitTransient(w, done) }
	}
	for i := 0; i < resident; i++ {
		submit(10*time.Hour, nil)
	}
	done := false
	finish := func() { done = true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done = false
		submit(time.Microsecond, finish)
		for !done {
			if !sim.Step() {
				b.Fatal("simulator drained before churn job completed")
			}
		}
	}
}

// BenchmarkPSServer* track the processor-sharing server's per-event
// cost across four orders of magnitude of resident jobs; the Legacy
// pair keeps the retained full-scan reference measurable so the
// speedup stays visible in the BENCH trajectory (no Legacy100k: even
// filling the legacy server with 100k jobs is quadratic).
func BenchmarkPSServer10(b *testing.B)       { benchmarkPSServerChurn(b, 10, false) }
func BenchmarkPSServer1k(b *testing.B)       { benchmarkPSServerChurn(b, 1000, false) }
func BenchmarkPSServer100k(b *testing.B)     { benchmarkPSServerChurn(b, 100000, false) }
func BenchmarkPSServerLegacy10(b *testing.B) { benchmarkPSServerChurn(b, 10, true) }
func BenchmarkPSServerLegacy1k(b *testing.B) { benchmarkPSServerChurn(b, 1000, true) }

// BenchmarkEventEngine measures the bare scheduling core — one
// schedule + fire cycle per iteration with a preallocated callback.
// The 0 allocs/op is the engine's steady-state contract: pooled Event
// structs and the typed quad-ary heap leave no per-event garbage
// (TestSimulatorSteadyStateAllocs gates the same property).
func BenchmarkEventEngine(b *testing.B) {
	sim := simtime.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.After(time.Microsecond, fn)
		sim.Step()
	}
}

// BenchmarkEventEngineBacklog measures the event core at the heap mix
// of the rack256 cell: a compute unit holding a 2,048-deep backlog of
// invocations beside 256 PS servers, each completing one job at a time
// and submitting the next from its completion. Every completion
// refills its own queue, so the mix holds steady; one op is one event
// stepped, and the two kinds fire at about equal rates (one CU
// completion per microsecond, 256 servers of ~256 µs jobs).
func BenchmarkEventEngineBacklog(b *testing.B) {
	sim := simtime.New()
	cu := &fpga.ComputeUnit{Kernel: "k", II: 1, ClockMHz: 1000} // 1,000 trips = 1 µs
	var invoke func()
	invoke = func() { cu.Enqueue(sim, 1000, invoke) }
	for i := 0; i < 2048; i++ {
		invoke()
	}
	for i := 0; i < 256; i++ {
		ps := simtime.NewPSServer(sim, 1)
		work := 256*time.Microsecond + time.Duration(i)*time.Nanosecond
		var churn func()
		churn = func() { ps.SubmitTransient(work, churn) }
		churn()
	}
	// Warm the pools: every server and the CU complete at least once.
	for i := 0; i < 4096; i++ {
		sim.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkTable1ExecutionTimes regenerates Table 1: per-benchmark
// execution times on vanilla x86 and under x86→FPGA / x86→ARM
// migration. Reports CG-A's FPGA time (the paper's worst case).
func BenchmarkTable1ExecutionTimes(b *testing.B) {
	arts := benchArtifacts(b)
	var rows []exper.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = exper.Table1(arts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].X86FPGA.Milliseconds()), "CGA-fpga-ms")
}

// BenchmarkTable2ThresholdEstimation regenerates Table 2: the step G
// estimation campaign. Reports CG-A's FPGA threshold.
func BenchmarkTable2ThresholdEstimation(b *testing.B) {
	apps, err := workloads.Registry()
	if err != nil {
		b.Fatal(err)
	}
	var thr int
	for i := 0; i < b.N; i++ {
		table, err := EstimateThresholds(apps)
		if err != nil {
			b.Fatal(err)
		}
		rec, err := table.Get("CG-A")
		if err != nil {
			b.Fatal(err)
		}
		thr = rec.FPGAThr
	}
	b.ReportMetric(float64(thr), "CGA-fpga-thr")
}

// BenchmarkTable4BFS regenerates the Section 4.4 BFS study. Reports
// the 5000-node FPGA/x86 slowdown factor.
func BenchmarkTable4BFS(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		rows, err := exper.Table4([]int{1000, 3000, 5000})
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		factor = float64(last.FPGA) / float64(last.X86)
	}
	b.ReportMetric(factor, "fpga/x86-slowdown")
}

// benchFixedLoad runs a shrunken Figures 3-5 sweep and reports the
// Xar-Trek vs Vanilla/x86 speedup at the largest set size.
func benchFixedLoad(b *testing.B, load int) {
	arts := benchArtifacts(b)
	modes := []exper.Mode{exper.ModeXarTrek, exper.ModeVanillaX86}
	var speedup float64
	for i := 0; i < b.N; i++ {
		pts, err := exper.RunFixedLoadSweep(arts, []int{5, 15}, modes, load, 2, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := pts[len(pts)-2:]
		speedup = float64(last[1].Average) / float64(last[0].Average)
	}
	b.ReportMetric(speedup, "x86/xar-speedup")
}

// BenchmarkFigure3LowLoad regenerates Figure 3 (low load: no
// background processes).
func BenchmarkFigure3LowLoad(b *testing.B) { benchFixedLoad(b, 0) }

// BenchmarkFigure4MediumLoad regenerates Figure 4 (60 processes).
func BenchmarkFigure4MediumLoad(b *testing.B) { benchFixedLoad(b, 60) }

// BenchmarkFigure5HighLoad regenerates Figure 5 (120 processes).
func BenchmarkFigure5HighLoad(b *testing.B) { benchFixedLoad(b, 120) }

// BenchmarkFigure6Throughput regenerates Figure 6's load-50 bars and
// reports Xar-Trek's throughput gain over vanilla x86.
func BenchmarkFigure6Throughput(b *testing.B) {
	arts := benchArtifacts(b)
	fd, err := workloads.NewFaceDet320()
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		xar, err := exper.RunThroughput(arts, fd, exper.ModeXarTrek, 50, 60*time.Second, 1000)
		if err != nil {
			b.Fatal(err)
		}
		x86, err := exper.RunThroughput(arts, fd, exper.ModeVanillaX86, 50, 60*time.Second, 1000)
		if err != nil {
			b.Fatal(err)
		}
		gain = xar.PerSecond / x86.PerSecond
	}
	b.ReportMetric(gain, "xar/x86-throughput")
}

// BenchmarkFigure7PeriodicExec regenerates a shrunken Figure 7 wave
// experiment and reports the Xar-Trek speedup over vanilla x86.
func BenchmarkFigure7PeriodicExec(b *testing.B) {
	arts := benchArtifacts(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		xar, err := exper.RunWaves(arts, exper.ModeXarTrek, 6, 20, 30*time.Second, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		x86, err := exper.RunWaves(arts, exper.ModeVanillaX86, 6, 20, 30*time.Second, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(x86.Average) / float64(xar.Average)
	}
	b.ReportMetric(speedup, "x86/xar-speedup")
}

// BenchmarkFigure8PeriodicThroughput regenerates a shrunken Figure 8
// and reports Xar-Trek's average images/second along the load wave.
func BenchmarkFigure8PeriodicThroughput(b *testing.B) {
	arts := benchArtifacts(b)
	fd, err := workloads.NewFaceDet320()
	if err != nil {
		b.Fatal(err)
	}
	var avg float64
	for i := 0; i < b.N; i++ {
		r, err := exper.RunPeriodicThroughput(arts, fd, exper.ModeXarTrek, 10, 120, 5, 60*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		avg = r.Average
	}
	b.ReportMetric(avg, "img/s")
}

// BenchmarkFigure9Profitability regenerates Figure 9's endpoints and
// reports the 0%-CG-A speedup (the all-compute-intensive best case).
func BenchmarkFigure9Profitability(b *testing.B) {
	arts := benchArtifacts(b)
	modes := []exper.Mode{exper.ModeXarTrek, exper.ModeVanillaX86}
	var speedup float64
	for i := 0; i < b.N; i++ {
		pts, err := exper.RunProfitabilityStudy(arts, []int{0, 100}, modes, 10, 120)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(pts[1].Average) / float64(pts[0].Average)
	}
	b.ReportMetric(speedup, "x86/xar-speedup-0pct")
}

// BenchmarkFigure10BinarySizes regenerates Figure 10 and reports the
// largest Xar-Trek/Popcorn size increase across the benchmarks.
func BenchmarkFigure10BinarySizes(b *testing.B) {
	arts := benchArtifacts(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := exper.BinarySizes(arts)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if f := float64(r.XarTrek) / float64(r.PopcornX86ARM); f > worst {
				worst = f
			}
		}
	}
	b.ReportMetric((worst-1)*100, "max-increase-pct")
}

// ablationSpeedup measures how much the full system outperforms the
// system with one design decision removed, on a medium-load mixed set.
func ablationSpeedup(b *testing.B, opts exper.Options) float64 {
	arts := benchArtifacts(b)
	set := exper.RandomSet(rand.New(rand.NewSource(benchSeed)), arts.Apps, 10)
	full, err := exper.RunSetOpts(arts, set, exper.ModeXarTrek, 60, exper.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ablated, err := exper.RunSetOpts(arts, set, exper.ModeXarTrek, 60, opts)
	if err != nil {
		b.Fatal(err)
	}
	return float64(ablated.Average) / float64(full.Average)
}

// BenchmarkAblationCPUModel compares the processor-sharing x86 model
// against FIFO cores (DESIGN.md §5 item 1). The scheduler observes a
// different load trajectory under FIFO, shifting decisions.
func BenchmarkAblationCPUModel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = ablationSpeedup(b, exper.Options{X86FIFO: true})
	}
	b.ReportMetric(ratio, "fifo/ps-ratio")
}

// BenchmarkAblationReconfigHiding disables Algorithm 2's
// reconfiguration-latency hiding: processes block on the FPGA instead
// of continuing on a CPU (item 2). Both variants run without
// pre-configuration, since a pre-configured device never triggers the
// on-demand path this ablation targets.
func BenchmarkAblationReconfigHiding(b *testing.B) {
	arts := benchArtifacts(b)
	set := exper.RandomSet(rand.New(rand.NewSource(benchSeed)), arts.Apps, 10)
	var ratio float64
	for i := 0; i < b.N; i++ {
		hide, err := exper.RunSetOpts(arts, set, exper.ModeXarTrek, 60,
			exper.Options{NoPreconfig: true})
		if err != nil {
			b.Fatal(err)
		}
		block, err := exper.RunSetOpts(arts, set, exper.ModeXarTrek, 60,
			exper.Options{NoPreconfig: true, BlockOnReconfig: true})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(block.Average) / float64(hide.Average)
	}
	b.ReportMetric(ratio, "block/hide-ratio")
}

// BenchmarkAblationPreconfig quantifies the early-configuration design
// decision (item 3) with the paper's own comparison (Section 4.2):
// Xar-Trek, which configures at main start and runs on a CPU while the
// download completes, against the traditional always-FPGA flow, which
// configures on first use and blocks. It reports the throughput ratio
// under load.
func BenchmarkAblationPreconfig(b *testing.B) {
	arts := benchArtifacts(b)
	fd, err := workloads.NewFaceDet320()
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		xar, err := exper.RunThroughput(arts, fd, exper.ModeXarTrek, 25, 60*time.Second, 1000)
		if err != nil {
			b.Fatal(err)
		}
		always, err := exper.RunThroughput(arts, fd, exper.ModeVanillaFPGA, 25, 60*time.Second, 1000)
		if err != nil {
			b.Fatal(err)
		}
		ratio = xar.PerSecond / always.PerSecond
	}
	b.ReportMetric(ratio, "xar/alwaysfpga-throughput")
}

// BenchmarkAblationDynamicThresholds freezes the threshold table at
// the static step G estimate, disabling Algorithm 1 (item 4). Waves of
// sequential launches give the dynamic updates decisions to influence.
func BenchmarkAblationDynamicThresholds(b *testing.B) {
	arts := benchArtifacts(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		dynamic, err := exper.RunWavesOpts(arts, exper.ModeXarTrek, 6, 20, 30*time.Second, benchSeed,
			exper.Options{})
		if err != nil {
			b.Fatal(err)
		}
		static, err := exper.RunWavesOpts(arts, exper.ModeXarTrek, 6, 20, 30*time.Second, benchSeed,
			exper.Options{StaticThresholds: true})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(static.Average) / float64(dynamic.Average)
	}
	b.ReportMetric(ratio, "static/dynamic-ratio")
}

// benchDevice is a minimal sched.Device for placement benchmarks: the
// kernel is resident, so Decide exercises the full policy scoring
// path without touching the simulator.
type benchDevice struct{ resident bool }

func (d *benchDevice) HasKernel(string) bool                { return d.resident }
func (d *benchDevice) Reconfiguring() bool                  { return false }
func (d *benchDevice) KernelPending(string) bool            { return false }
func (d *benchDevice) Program(*xclbin.XCLBIN, func()) error { return nil }

// benchmarkDecide measures one Algorithm 2 decision per iteration on
// an 8-ARM-node, 4-card fleet under the given placement policy, with
// the load high enough that every request places on the ARM class —
// the placement hot path of a serving campaign.
func benchmarkDecide(b *testing.B, policy sched.PlacementPolicy) {
	benchmarkDecideLoads(b, policy, []int{9, 4, 7, 2, 8, 3, 6, 5})
}

// benchmarkDecideLoads is benchmarkDecide over one ARM node per entry
// of loads, each carrying that many resident processes.
func benchmarkDecideLoads(b *testing.B, policy sched.PlacementPolicy, loads []int) {
	tab := threshold.NewTable()
	if err := tab.Add(threshold.Record{
		App: "app", Kernel: "KNL", FPGAThr: 60, ARMThr: 16,
		X86Exec:  175 * time.Millisecond,
		ARMExec:  642 * time.Millisecond,
		FPGAExec: 332 * time.Millisecond,
	}); err != nil {
		b.Fatal(err)
	}
	nodes := make([]int, len(loads))
	row := make([]float64, len(loads))
	idx := sched.NewLoadIndex(len(loads))
	for i, l := range loads {
		nodes[i] = i + 1
		row[i] = (time.Duration(nodes[i]) * 10 * time.Millisecond).Seconds()
		idx.Add(i, l)
	}
	devs := make([]sched.Device, 4)
	for i := range devs {
		devs[i] = &benchDevice{resident: true}
	}
	fleet := sched.Fleet{
		ARMNodes:     nodes,
		Loads:        idx,
		NodeCores:    func(int) int { return 96 },
		MigrationRow: func(string) []float64 { return row },
		LinkQueue:    func(id int) int { return id % 3 },
		Devices:      devs,
		Policy:       policy,
	}
	srv := sched.NewFleetServer(tab, func() int { return 40 }, fleet, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Decide("app", "KNL"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecide* track the per-request cost of the placement-policy
// layer (DESIGN.md §8): the default rule must stay allocation-free
// and the richer policies within the same order of magnitude, so
// placement never becomes the serving bottleneck.
func BenchmarkDecideDefault(b *testing.B) { benchmarkDecide(b, nil) }

// benchmarkDecideDefaultN runs the default rule over n ARM nodes at the
// scale of the rack256 (192) and rack1024 (768) fleets. Every node
// carries three processes except the last, which carries two, so the
// least-loaded pick sits at the far end of fleet order.
func benchmarkDecideDefaultN(b *testing.B, n int) {
	loads := make([]int, n)
	for i := range loads {
		loads[i] = 3
	}
	loads[n-1] = 2
	benchmarkDecideLoads(b, nil, loads)
}

func BenchmarkDecideDefault192(b *testing.B) { benchmarkDecideDefaultN(b, 192) }
func BenchmarkDecideDefault768(b *testing.B) { benchmarkDecideDefaultN(b, 768) }

func BenchmarkDecideLinkAware(b *testing.B) { benchmarkDecide(b, sched.LinkAwarePolicy{}) }
func BenchmarkDecideAffinity(b *testing.B) {
	benchmarkDecide(b, sched.NewAffinityPolicy(map[string]int{"KNL": 2}))
}

// benchmarkServingPolicy measures the cross-rack policy-comparison
// cell (per-kernel images, slow uplink, saturating load) under one
// placement policy — the end-to-end cost of a policy campaign run.
func benchmarkServingPolicy(b *testing.B, policy string) {
	benchSplitOnce.Do(func() {
		apps, err := workloads.Registry()
		if err != nil {
			benchSplitErr = err
			return
		}
		benchSplitArts, benchSplitErr = exper.BuildArtifactsSplitImages(apps)
	})
	if benchSplitErr != nil {
		b.Fatalf("split artifacts: %v", benchSplitErr)
	}
	cfg := exper.ServingConfig{
		Topo:       exper.PolicyComparisonTopology(),
		Mode:       exper.ModeXarTrek,
		RatePerSec: 48,
		Duration:   30 * time.Second,
		Seed:       benchSeed,
		Opts:       exper.Options{Policy: policy},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var p99 time.Duration
	for i := 0; i < b.N; i++ {
		r, err := exper.RunServing(benchSplitArts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		p99 = r.P99
	}
	b.ReportMetric(float64(p99.Milliseconds()), "p99-ms")
}

var (
	benchSplitOnce sync.Once
	benchSplitArts *exper.Artifacts
	benchSplitErr  error
)

func BenchmarkServingPolicyDefault(b *testing.B)   { benchmarkServingPolicy(b, exper.PolicyDefault) }
func BenchmarkServingPolicyLinkAware(b *testing.B) { benchmarkServingPolicy(b, exper.PolicyLinkAware) }
func BenchmarkServingPolicyAffinity(b *testing.B)  { benchmarkServingPolicy(b, exper.PolicyAffinity) }

// BenchmarkFaultInjectionTimeline measures expanding a churn-heavy
// fault spec into a sorted event timeline — the per-cell setup cost a
// fault campaign pays before its serving run starts.
func BenchmarkFaultInjectionTimeline(b *testing.B) {
	fsec := func(n int) faults.Duration { return faults.Duration(time.Duration(n) * time.Second) }
	targets := make([]string, 24)
	for i := range targets {
		targets[i] = "arm-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	spec := &faults.Spec{
		Events: []faults.Event{
			{At: fsec(5), Kind: faults.NodeDown, Node: "x86-01"},
			{At: fsec(15), Kind: faults.NodeUp, Node: "x86-01"},
		},
		Churn: []faults.Churn{
			{Kind: "node", Targets: targets, MTBF: fsec(30), MTTR: fsec(3)},
			{Kind: "fpga", Targets: []string{"fpga-00", "fpga-01"}, MTBF: fsec(60), MTTR: fsec(5)},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		tl, err := spec.Timeline(benchSeed, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		events = len(tl)
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkServingWithChurn measures a rack-scale serving run with
// live fault injection — crashes, a card failure, and node churn —
// against the same topology BenchmarkServingRack32Low runs fault-free,
// so the overhead of request tracking, kill sweeps, and failure-aware
// placement stays visible as the delta between the two.
func BenchmarkServingWithChurn(b *testing.B) {
	arts := benchArtifacts(b)
	fsec := func(n int) faults.Duration { return faults.Duration(time.Duration(n) * time.Second) }
	cfg := exper.ServingConfig{
		Topo:       cluster.ScaleOutTopology("rack32", 8, 24, 4),
		Mode:       exper.ModeXarTrek,
		RatePerSec: 16,
		Duration:   30 * time.Second,
		Seed:       benchSeed,
		Faults: &faults.Spec{
			Events: []faults.Event{
				{At: fsec(5), Kind: faults.NodeDown, Node: "x86-03"},
				{At: fsec(12), Kind: faults.NodeUp, Node: "x86-03"},
				{At: fsec(8), Kind: faults.FPGADown, FPGA: "fpga-01"},
				{At: fsec(20), Kind: faults.FPGAUp, FPGA: "fpga-01"},
			},
			Churn: []faults.Churn{
				{Kind: "node", Targets: []string{"arm-10", "arm-11"}, MTBF: fsec(15), MTTR: fsec(3)},
			},
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var avail float64
	for i := 0; i < b.N; i++ {
		r, err := exper.RunServing(arts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		avail = r.Faults.Availability
	}
	b.ReportMetric(avail, "availability")
}

// benchmarkServingSketch measures the sketch-latency-mode serving
// engine: lazily generated Poisson arrivals into log-linear latency
// histograms, the million-request configuration. req/wall-s is the headline
// requests-per-wall-second trajectory BENCH.md tracks; the alloc
// figures pin the O(in-flight) memory claim (bytes/op must not scale
// with the request count).
func benchmarkServingSketch(b *testing.B, topo cluster.Topology, rate float64, dur time.Duration) {
	arts := benchArtifacts(b)
	cfg := exper.ServingConfig{
		Topo:       topo,
		Mode:       exper.ModeXarTrek,
		RatePerSec: rate,
		Duration:   dur,
		Seed:       benchSeed,
		Opts:       exper.Options{LatencyMode: exper.LatencySketch},
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var offered int
	for i := 0; i < b.N; i++ {
		r, err := exper.RunServing(arts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		offered = r.Offered
	}
	wall := time.Since(start).Seconds()
	b.ReportMetric(float64(offered*b.N)/wall, "req/wall-s")
	b.ReportMetric(float64(offered), "offered")
}

// BenchmarkServingSketchRack32 is the sketch-mode twin of
// BenchmarkServingRack32Low (~480 requests): the delta against the
// exact-mode benchmark is the sketch bookkeeping overhead at a scale
// where both run comfortably.
func BenchmarkServingSketchRack32(b *testing.B) {
	benchmarkServingSketch(b, cluster.ScaleOutTopology("rack32", 8, 24, 4), 16, 30*time.Second)
}

// BenchmarkServingSketchRack64Dense drives ~61k requests through a
// 64-node rack — dense enough that requests-per-wall-second reflects
// the steady-state event-engine cost rather than setup.
func BenchmarkServingSketchRack64Dense(b *testing.B) {
	benchmarkServingSketch(b, cluster.ScaleOutTopology("rack64", 16, 48, 8), 2048, 30*time.Second)
}

// benchmarkServingSharded runs the checked-in rack256 million-request
// cell (sketch mode, 64 entry hosts) at a shard count: shards=1 is the
// single-timeline engine, shards>1 partitions the fleet and deals the
// arrival stream across per-shard timelines fanned over the worker
// pool (DESIGN.md §13). req/wall-s is the headline metric the sharding
// work moves; the shards=1/shards=8 ratio is the speedup BENCH.md
// records.
func benchmarkServingSharded(b *testing.B, shards int) {
	arts := benchArtifacts(b)
	cfg := exper.ServingConfig{
		Topo:       cluster.ScaleOutTopology("rack256", 64, 192, 32),
		Mode:       exper.ModeXarTrek,
		RatePerSec: 512,
		Duration:   2048 * time.Second,
		Seed:       benchSeed,
		Opts:       exper.Options{LatencyMode: exper.LatencySketch, Shards: shards},
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var offered int
	for i := 0; i < b.N; i++ {
		r, err := exper.RunServing(arts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		offered = r.Offered
	}
	wall := time.Since(start).Seconds()
	b.ReportMetric(float64(offered*b.N)/wall, "req/wall-s")
	b.ReportMetric(float64(offered), "offered")
}

func BenchmarkServingSharded1(b *testing.B) { benchmarkServingSharded(b, 1) }
func BenchmarkServingSharded4(b *testing.B) { benchmarkServingSharded(b, 4) }
func BenchmarkServingSharded8(b *testing.B) { benchmarkServingSharded(b, 8) }

// BenchmarkAutoscalerEpoch isolates the control loop's per-epoch cost:
// one Observe call on a 32-entry fleet with a utilization signal that
// sweeps across both thresholds, so the hysteresis and clamping paths
// all execute. This is the fixed overhead every elastic serving run
// pays once per epoch; it must stay trivially cheap next to the event
// engine (sub-microsecond).
func BenchmarkAutoscalerEpoch(b *testing.B) {
	spec := &elastic.AutoscalerSpec{
		Policy: elastic.ScaleTargetUtilization, Epoch: elastic.Duration(time.Second),
		HighUtil: 0.8, LowUtil: 0.3, MinNodes: 1, MaxNodes: 32,
	}
	ctrl := elastic.NewController(spec, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp := elastic.Sample{Utilization: float64(i%100) / 50}
		ctrl.Observe(time.Duration(i)*time.Second, smp)
	}
}

// BenchmarkServingWithShedding runs the rack32 serving cell well past
// its capacity knee with drop admission at the entry nodes. The
// headline metric is the shed fraction at 4x the fault-free load; the
// ns/op delta against BenchmarkServingRack32Low prices the admission
// gate on the arrival path.
func BenchmarkServingWithShedding(b *testing.B) {
	arts := benchArtifacts(b)
	cfg := exper.ServingConfig{
		Topo:       cluster.ScaleOutTopology("rack32", 8, 24, 4),
		Mode:       exper.ModeXarTrek,
		RatePerSec: 64,
		Duration:   30 * time.Second,
		Seed:       benchSeed,
		Admission:  &elastic.AdmissionSpec{QueueCap: 8, Policy: elastic.Drop},
	}
	b.ReportAllocs()
	b.ResetTimer()
	var shedFrac float64
	for i := 0; i < b.N; i++ {
		r, err := exper.RunServing(arts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		shedFrac = float64(r.Shed) / float64(r.Offered)
	}
	b.ReportMetric(shedFrac, "shed-frac")
}

// benchWorkload is the canonical two-cohort tenant mix the multi-tenant
// benchmarks drive: a bursty deadline-bound interactive cohort and a
// heavier batch cohort (the examples/campaigns/tenants.json shape).
func benchWorkload() *tenancy.Spec {
	return &tenancy.Spec{Cohorts: []tenancy.Cohort{
		{
			ID: "interactive", RateFraction: 0.3, Class: tenancy.ClassCritical,
			Deadline: tenancy.Duration(400 * time.Millisecond),
			Arrival:  tenancy.ArrivalSpec{Process: tenancy.ProcessGamma, CV: 3},
			Apps:     []tenancy.AppShare{{Name: "FaceDet320", Weight: 2}, {Name: "Digit500"}},
		},
		{
			ID: "analytics", RateFraction: 0.7, Class: tenancy.ClassBatch,
			Arrival: tenancy.ArrivalSpec{Process: tenancy.ProcessWeibull, CV: 2},
		},
	}}
}

// BenchmarkTenancyMergedStream measures the raw cohort-stream generator:
// each iteration draws a full 600k-arrival merged timeline (gamma and
// Weibull gaps, weighted app draws, K-way merge) without the serving
// engine attached. arrivals/wall-s is the generator ceiling; the alloc
// figures pin the O(cohorts) state claim — bytes/op must not scale with
// the arrival count.
func BenchmarkTenancyMergedStream(b *testing.B) {
	cfg := tenancy.StreamConfig{
		Spec:       benchWorkload(),
		RatePerSec: 10000,
		Horizon:    60 * time.Second,
		Seed:       benchSeed,
		PoolSize:   5,
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	var arrivals int
	for i := 0; i < b.N; i++ {
		s, err := tenancy.NewStream(cfg)
		if err != nil {
			b.Fatal(err)
		}
		arrivals = 0
		for _, ok := s.Next(); ok; _, ok = s.Next() {
			arrivals++
		}
	}
	wall := time.Since(start).Seconds()
	b.ReportMetric(float64(arrivals*b.N)/wall, "arrivals/wall-s")
	b.ReportMetric(float64(arrivals), "arrivals")
}

// BenchmarkServingMultiTenant runs the rack32 serving cell under the
// two-cohort workload — the per-request cost of cohort-stream merging,
// class threading through the scheduler, and per-class digest upkeep.
// The delta against BenchmarkServingRack32Low prices the tenancy layer;
// critical-p99-ms is the headline the deadline policy moves.
func BenchmarkServingMultiTenant(b *testing.B) {
	arts := benchArtifacts(b)
	cfg := exper.ServingConfig{
		Topo:       cluster.ScaleOutTopology("rack32", 8, 24, 4),
		Mode:       exper.ModeXarTrek,
		RatePerSec: 16,
		Duration:   30 * time.Second,
		Seed:       benchSeed,
		Opts:       exper.Options{Policy: exper.PolicyDeadline},
		Workload:   benchWorkload(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var critP99 time.Duration
	for i := 0; i < b.N; i++ {
		r, err := exper.RunServing(arts, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, cl := range r.Tenancy.Classes {
			if cl.Class == tenancy.ClassCritical {
				critP99 = cl.P99
			}
		}
	}
	b.ReportMetric(float64(critP99.Milliseconds()), "critical-p99-ms")
}
