package exper

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/faults"
	"xartrek/internal/popcorn"
)

// fsec builds a faults.Duration from seconds.
func fsec(n int) faults.Duration { return faults.Duration(time.Duration(n) * time.Second) }

// churnConfig is a serving run with enough failure variety to exercise
// every fault path: entry-node crash, ARM crash, card failure, drain,
// degradation and churn.
func churnConfig() ServingConfig {
	return ServingConfig{
		Name:       "churn",
		Topo:       cluster.ScaleOutTopology("rack8", 4, 4, 2),
		Mode:       ModeXarTrek,
		RatePerSec: 16,
		Duration:   30 * time.Second,
		Seed:       2021,
		Faults: &faults.Spec{
			Events: []faults.Event{
				{At: fsec(3), Kind: faults.NodeDown, Node: "x86-02"},
				{At: fsec(8), Kind: faults.NodeUp, Node: "x86-02"},
				{At: fsec(5), Kind: faults.NodeDown, Node: "arm-01"},
				{At: fsec(12), Kind: faults.NodeUp, Node: "arm-01"},
				{At: fsec(6), Kind: faults.FPGADown, FPGA: "fpga-00"},
				{At: fsec(14), Kind: faults.FPGAUp, FPGA: "fpga-00"},
				{At: fsec(10), Kind: faults.NodeDrain, Node: "x86-03"},
				{At: fsec(20), Kind: faults.NodeUndrain, Node: "x86-03"},
				{At: fsec(15), Kind: faults.LinkDegrade, A: "x86-00", B: "arm-00", Factor: 4},
				{At: fsec(22), Kind: faults.LinkRestore, A: "x86-00", B: "arm-00"},
			},
			Churn: []faults.Churn{
				{Kind: "node", Targets: []string{"arm-02"}, MTBF: fsec(10), MTTR: fsec(2)},
			},
		},
	}
}

func TestZeroFaultSpecByteIdenticalToBaseline(t *testing.T) {
	arts := testArtifacts(t)
	base := ServingConfig{
		Topo: cluster.ScaleOutTopology("rack8", 4, 4, 2), Mode: ModeXarTrek,
		RatePerSec: 8, Duration: 20 * time.Second, Seed: 2021,
	}
	plain, err := RunServing(arts, base)
	if err != nil {
		t.Fatal(err)
	}
	empty := base
	empty.Faults = &faults.Spec{MaxRetries: 5, RetryBackoff: faults.Duration(time.Second)}
	withEmpty, err := RunServing(arts, empty)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withEmpty) {
		t.Fatalf("empty fault spec changed the run:\n%+v\n%+v", plain, withEmpty)
	}
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("empty-spec JSON diverged from baseline:\n%s\n%s", a, b)
	}
	if withEmpty.Faults != nil {
		t.Fatal("empty fault spec produced a fault report")
	}
	if strings.Contains(string(a), "Faults") {
		t.Fatalf("fault-free JSON mentions Faults: %s", a)
	}
}

func TestFaultInjectionDisruptsAndRecovers(t *testing.T) {
	arts := testArtifacts(t)
	r, err := RunServing(arts, churnConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := r.Faults
	if f == nil {
		t.Fatal("fault-injected run has no fault report")
	}
	if f.Events == 0 {
		t.Fatal("no fault events applied")
	}
	if f.RequestsDisrupted == 0 {
		t.Fatal("no requests disrupted despite entry-node crashes")
	}
	if f.RequestsRetried == 0 {
		t.Fatal("no requests retried")
	}
	if f.Availability >= 1 {
		t.Fatalf("availability = %v, want < 1 under churn", f.Availability)
	}
	if f.Availability <= 0 {
		t.Fatalf("availability = %v, the cluster should still mostly serve", f.Availability)
	}
	if f.NodeDownSeconds <= 0 {
		t.Fatalf("node down-seconds = %v, want > 0", f.NodeDownSeconds)
	}
	if f.DeviceDownSeconds <= 0 {
		t.Fatalf("device down-seconds = %v, want > 0", f.DeviceDownSeconds)
	}
	if f.RecoveryP99 <= 0 {
		t.Fatalf("recovery p99 = %v, want > 0 with disrupted-but-completed requests", f.RecoveryP99)
	}
	if f.RecoveryP50 > f.RecoveryP99 {
		t.Fatalf("recovery p50 %v > p99 %v", f.RecoveryP50, f.RecoveryP99)
	}
	if len(f.ClassP99) == 0 {
		t.Fatal("no per-class p99 under churn")
	}
	// Lost + completed cannot exceed offered.
	if r.Completed+f.RequestsLost > r.Offered {
		t.Fatalf("completed %d + lost %d > offered %d", r.Completed, f.RequestsLost, r.Offered)
	}
}

func TestFaultRunDeterministicAcrossRunsAndGOMAXPROCS(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "fault-det", Cells: []CellSpec{{
		Name:     "churn",
		Kind:     KindServing,
		Topology: &TopologySpec{Kind: "scale-out", Name: "rack8", X86: 4, ARM: 4, FPGAs: 2},
		Mode:     "xar-trek",
		Rate:     16,
		Duration: Duration(20 * time.Second),
		Seeds:    []int64{2021, 7},
		Faults: &faults.Spec{
			Events: []faults.Event{
				{At: fsec(3), Kind: faults.NodeDown, Node: "x86-02"},
				{At: fsec(8), Kind: faults.NodeUp, Node: "x86-02"},
			},
			Churn: []faults.Churn{
				{Kind: "node", Targets: []string{"arm-00", "arm-01"}, MTBF: fsec(6), MTTR: fsec(2)},
				{Kind: "fpga", Targets: []string{"fpga-00"}, MTBF: fsec(8), MTTR: fsec(2)},
			},
		},
	}}}
	var par1, par8 *Report
	withGOMAXPROCS(1, func() {
		var err error
		par1, err = RunCampaign(arts, spec, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	withGOMAXPROCS(8, func() {
		var err error
		par8, err = RunCampaign(arts, spec, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	a, err := json.Marshal(par1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(par8)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("fault campaign not byte-identical across GOMAXPROCS")
	}
	// Different seeds expand different churn: the two cells must not be
	// identical, or the seed is not reaching the fault timeline.
	if reflect.DeepEqual(par1.Cells[0].Serving.Faults, par1.Cells[1].Serving.Faults) {
		t.Fatal("different seeds produced identical fault reports")
	}
}

func TestFaultsCampaignFileAcceptance(t *testing.T) {
	arts := testArtifacts(t)
	path := filepath.Join("..", "..", "examples", "campaigns", "faults.json")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := ParseCampaign(f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCampaign(arts, *spec, RunOpts{BaseDir: filepath.Dir(path)})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		fr := c.Serving.Faults
		if fr == nil {
			t.Fatalf("cell %d has no fault report", c.Index)
		}
		if fr.Availability >= 1 {
			t.Fatalf("cell %d availability = %v, want < 1", c.Index, fr.Availability)
		}
		if fr.RequestsRetried == 0 {
			t.Fatalf("cell %d retried nothing", c.Index)
		}
		if c.Metrics["availability"] != fr.Availability {
			t.Fatalf("cell %d availability metric %v != report %v",
				c.Index, c.Metrics["availability"], fr.Availability)
		}
		if c.Metrics["requests_retried"] != float64(fr.RequestsRetried) {
			t.Fatalf("cell %d requests_retried metric diverged", c.Index)
		}
		if _, ok := c.Metrics["recovery_time_p99_ms"]; !ok {
			t.Fatalf("cell %d missing recovery_time_p99_ms metric", c.Index)
		}
	}
}

func TestFPGAFailureFallsBackToCPU(t *testing.T) {
	arts := testArtifacts(t)
	// Always-FPGA serving with the only card failing mid-run: in-flight
	// invocations degrade to CPU and later arrivals wait for recovery.
	r, err := RunServing(arts, ServingConfig{
		Name: "card-loss", Topo: cluster.ScaleOutTopology("rack2", 1, 1, 1),
		Mode: ModeVanillaFPGA, RatePerSec: 40, Duration: 10 * time.Second, Seed: 2021,
		Faults: &faults.Spec{Events: []faults.Event{
			{At: faults.Duration(2500 * time.Millisecond), Kind: faults.FPGADown, FPGA: "fpga-00"},
			{At: fsec(6), Kind: faults.FPGAUp, FPGA: "fpga-00"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := r.Faults
	if f == nil {
		t.Fatal("no fault report")
	}
	if f.FPGAFallbacks == 0 {
		t.Fatal("card failure caused no CPU fallbacks")
	}
	if f.DeviceDownSeconds < 3 || f.DeviceDownSeconds > 4 {
		t.Fatalf("device down-seconds = %v, want ~3.5", f.DeviceDownSeconds)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestFaultTargetResolutionErrors(t *testing.T) {
	arts := testArtifacts(t)
	base := ServingConfig{
		Topo: cluster.ScaleOutTopology("rack4", 2, 2, 1), Mode: ModeXarTrek,
		RatePerSec: 2, Duration: 5 * time.Second, Seed: 1,
	}
	cases := []struct {
		ev   faults.Event
		want string
	}{
		{faults.Event{At: fsec(1), Kind: faults.NodeDown, Node: "nope"}, "unknown node"},
		{faults.Event{At: fsec(1), Kind: faults.FPGADown, FPGA: "nope"}, "unknown fpga"},
		{faults.Event{At: fsec(1), Kind: faults.LinkPartition, A: "x86-00", B: "nope"}, "unknown node"},
		// The scheduler host is the control plane: crashing it is
		// rejected, draining it is allowed.
		{faults.Event{At: fsec(1), Kind: faults.NodeDown, Node: "x86-00"}, "cannot crash the scheduler host"},
	}
	for i, tc := range cases {
		cfg := base
		cfg.Faults = &faults.Spec{Events: []faults.Event{tc.ev}}
		_, err := RunServing(arts, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
	// Draining the host is fine.
	cfg := base
	cfg.Faults = &faults.Spec{Events: []faults.Event{
		{At: fsec(1), Kind: faults.NodeDrain, Node: "x86-00"},
	}}
	if _, err := RunServing(arts, cfg); err != nil {
		t.Errorf("draining the host rejected: %v", err)
	}
}

func TestLinkPartitionExcludesARMPlacement(t *testing.T) {
	arts := testArtifacts(t)
	// Partition the only x86 node from the only ARM node for the whole
	// run: the scheduler must never place the ARM class across the dead
	// pair, so every request stays on x86 (or FPGA).
	r, err := RunServing(arts, ServingConfig{
		Name: "partition", Topo: cluster.ScaleOutTopology("rack2", 1, 1, 0),
		Mode: ModeXarTrek, RatePerSec: 20, Duration: 10 * time.Second, Seed: 2021,
		Faults: &faults.Spec{Events: []faults.Event{
			{At: 0, Kind: faults.LinkPartition, A: "x86-00", B: "arm-00"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched.ToARM != 0 {
		t.Fatalf("scheduler placed %d requests across a partitioned link", r.Sched.ToARM)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed under partition")
	}
}

// TestHugeLinkDegradeFactorRejected drives link degradation past what
// a transfer time can hold: a factor of 1e12 on every host-to-ARM pair
// used to overflow the scaled transfer and panic in the simulator. It
// must fail validation instead, while the largest accepted factor runs.
func TestHugeLinkDegradeFactorRejected(t *testing.T) {
	arts := testArtifacts(t)
	cell := func(factor float64) ServingConfig {
		spec := &faults.Spec{}
		for _, arm := range []string{"arm-00", "arm-01", "arm-02"} {
			spec.Events = append(spec.Events, faults.Event{Kind: faults.LinkDegrade, A: "x86-00", B: arm, Factor: factor})
		}
		return ServingConfig{
			Name: "degrade", Topo: cluster.ScaleOutTopology("rack4", 1, 3, 0), Mode: ModeXarTrek,
			RatePerSec: 4, Duration: 120 * time.Second, Seed: 7, Faults: spec,
		}
	}
	_, err := RunServing(arts, cell(1e12))
	if err == nil || !strings.Contains(err.Error(), "event 0: link-degrade x86-00-arm-00 factor 1e+12") {
		t.Fatalf("factor 1e12: err = %v, want the event named", err)
	}
	r, err := RunServing(arts, cell(1e6))
	if err != nil {
		t.Fatalf("factor 1e6: %v", err)
	}
	if r.Completed == 0 {
		t.Fatal("factor 1e6: nothing completed")
	}
}

// TestSlowLinkDegradeRunsToHorizon runs a cross-rack cell whose far
// ARM rack sits behind 1e4 B/s links, both degraded a million-fold at
// t=0. Transfers pile up on the degraded pairs; their completion times
// must saturate past the horizon, where the scaled transfer and the
// completion wait used to overflow Duration and panic the simulator.
func TestSlowLinkDegradeRunsToHorizon(t *testing.T) {
	spec := &faults.Spec{}
	for _, arm := range []string{"armb-00", "armb-01"} {
		spec.Events = append(spec.Events, faults.Event{Kind: faults.LinkDegrade, A: "x86-00", B: arm, Factor: 1e6})
	}
	r, err := RunServing(testArtifacts(t), ServingConfig{
		Name: "slow-degrade", Mode: ModeXarTrek, RatePerSec: 60, Duration: 20 * time.Second, Seed: 1, Faults: spec,
		Topo: cluster.CrossRackTopology("xr", 1, 0, 2, 0, popcorn.NetModel{LatencyRTT: time.Millisecond, BandwidthBps: 1e4}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched.ToARM == 0 {
		t.Fatal("no request migrated over the degraded links")
	}
	if r.Completed == 0 || r.Completed >= r.Offered {
		t.Fatalf("completed %d of %d offered, want some but not the migrated ones", r.Completed, r.Offered)
	}
}

// TestFaultReportDoesNotPinRuntime holds a churn cell's result and
// checks that the fault runtime behind it — and with it the platform —
// can still be collected: the report must not point into the runtime.
func TestFaultReportDoesNotPinRuntime(t *testing.T) {
	arts := testArtifacts(t)
	collected := make(chan struct{})
	defer func() { debugServingStep = nil }()
	watched := false
	debugServingStep = func(p *Platform) {
		if !watched {
			watched = true
			runtime.AddCleanup(p.faults, func(ch chan struct{}) { close(ch) }, collected)
		}
	}
	res, err := RunServing(arts, churnConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults == nil {
		t.Fatal("churn cell produced no fault report")
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(res.Faults)
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("fault runtime still reachable while its report is held")
		}
	}
}

// crashChurnConfig is a split-image cell whose entry hosts and ARM
// nodes crash and recover every few seconds, so requests are often
// mid-flight — or waiting out a reconfiguration — when their node
// dies.
func crashChurnConfig(mode Mode, opts Options) ServingConfig {
	return ServingConfig{
		Name:       "crash-churn",
		Topo:       cluster.ScaleOutTopology("rack8", 4, 4, 1),
		Mode:       mode,
		Opts:       opts,
		RatePerSec: 16,
		Duration:   60 * time.Second,
		Seed:       7,
		Faults: &faults.Spec{
			MaxRetries: 3,
			Churn: []faults.Churn{{
				Kind:    "node",
				Targets: []string{"x86-01", "x86-02", "x86-03", "arm-01", "arm-02"},
				MTBF:    fsec(4),
				MTTR:    fsec(2),
			}},
		},
	}
}

// TestNoWorkOnCrashedNode steps every event of the crash-churn cell and
// checks that no crashed node runs a job. A vanilla-FPGA request (and a
// Xar-Trek one blocking on reconfiguration) waits for its kernel on
// untracked timers; when its entry host crashes during the wait, the
// next attempt must re-place the request, not start work on the dead
// node.
func TestNoWorkOnCrashedNode(t *testing.T) {
	arts := testSplitArtifacts(t)
	cases := []struct {
		name string
		mode Mode
		opts Options
	}{
		{"vanilla-fpga", ModeVanillaFPGA, Options{}},
		{"xar-trek", ModeXarTrek, Options{}},
		{"xar-trek-block", ModeXarTrek, Options{BlockOnReconfig: true}},
		{"vanilla-arm", ModeVanillaARM, Options{}},
		{"vanilla-x86", ModeVanillaX86, Options{}},
	}
	defer func() { debugServingStep = nil }()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := 0
			debugServingStep = func(p *Platform) {
				for i, off := range p.off {
					if off&offCrashed != 0 && p.Cluster.Nodes[i].Load() > 0 {
						if bad == 0 {
							t.Errorf("t=%v: crashed %s runs %d job(s)", p.Sim.Now(), p.Cluster.Nodes[i].Name, p.Cluster.Nodes[i].Load())
						}
						bad++
					}
				}
			}
			res, err := RunServing(arts, crashChurnConfig(tc.mode, tc.opts))
			if err != nil {
				t.Fatal(err)
			}
			if bad > 0 {
				t.Errorf("%d steps found a job on a crashed node", bad)
			}
			if res.Completed == 0 || res.Faults.RequestsDisrupted == 0 {
				t.Fatalf("completed %d, disrupted %d: nothing exercised", res.Completed, res.Faults.RequestsDisrupted)
			}
			t.Logf("completed %d, disrupted %d, lost %d", res.Completed, res.Faults.RequestsDisrupted, res.Faults.RequestsLost)
		})
	}
}

// checkTokenRegistry asserts the fault runtime's bookkeeping between
// two events: every registered token is live, sits at its slot of its
// own registry and belongs to an in-flight launch; every pooled launch
// is reset, holding no tokens (nor stale pointers to any), attempts or
// disruption time.
func checkTokenRegistry(t *testing.T, p *Platform) {
	t.Helper()
	free := make(map[*launch]bool, len(p.launchFree))
	for _, l := range p.launchFree {
		free[l] = true
		if len(l.tokens) != 0 || l.attempts != 0 || l.disruptedAt != -1 {
			t.Fatalf("t=%v: pooled launch holds %d tokens, %d attempts, disruptedAt %v",
				p.Sim.Now(), len(l.tokens), l.attempts, l.disruptedAt)
		}
		for _, tok := range l.tokens[:cap(l.tokens)] {
			if tok != nil {
				t.Fatalf("t=%v: pooled launch keeps a stale token pointer", p.Sim.Now())
			}
		}
	}
	pooled := make(map[*segToken]bool, len(p.faults.free))
	for _, tok := range p.faults.free {
		if tok.l != nil || tok.job != nil || tok.next != nil {
			t.Fatalf("t=%v: pooled token keeps its segment", p.Sim.Now())
		}
		pooled[tok] = true
	}
	for reg, toks := range p.faults.tokens {
		for i, tok := range toks {
			switch {
			case tok == nil || tok.dead:
				t.Fatalf("t=%v: registry %d slot %d holds a dead token", p.Sim.Now(), reg, i)
			case pooled[tok]:
				t.Fatalf("t=%v: registry %d slot %d holds a pooled token", p.Sim.Now(), reg, i)
			case tok.reg != reg || tok.slot != i:
				t.Fatalf("t=%v: token at registry %d slot %d claims %d/%d", p.Sim.Now(), reg, i, tok.reg, tok.slot)
			case free[tok.l]:
				t.Fatalf("t=%v: live token belongs to a pooled launch", p.Sim.Now())
			case !slices.Contains(tok.l.tokens, tok):
				t.Fatalf("t=%v: live token missing from its launch", p.Sim.Now())
			}
		}
	}
}

// partitionSweepConfig is a cell whose only faults are partitions, so
// only the link sweep kills anything: every 100 ms one host-to-ARM pair
// is cut for 50 ms.
func partitionSweepConfig() ServingConfig {
	cut := &faults.Spec{}
	for i := 0; i < 200; i++ {
		at, arm := time.Duration(i)*100*time.Millisecond, fmt.Sprintf("arm-%02d", i%4)
		cut.Events = append(cut.Events,
			faults.Event{At: faults.Duration(at), Kind: faults.LinkPartition, A: "x86-00", B: arm},
			faults.Event{At: faults.Duration(at + 50*time.Millisecond), Kind: faults.LinkRestore, A: "x86-00", B: arm})
	}
	return ServingConfig{
		Name: "partitions", Topo: cluster.ScaleOutTopology("rack8", 4, 4, 2), Mode: ModeXarTrek,
		RatePerSec: 40, Duration: 20 * time.Second, Seed: 1, Faults: cut,
	}
}

// TestTrackedLaunchRecycling steps the checked-in fault cell, the
// crash-churn cell and a partition-only cell event by event:
// fault-tracked launches are recycled at finish like untracked ones,
// and the registries must never see a recycled one.
func TestTrackedLaunchRecycling(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "examples", "campaigns", "faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseCampaign(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Cells) != 1 {
		t.Fatalf("faults.json has %d cells, want 1", len(spec.Cells))
	}
	c := spec.Cells[0]
	topo, err := c.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	mode, err := ParseMode(c.Mode)
	if err != nil {
		t.Fatal(err)
	}
	cell := ServingConfig{
		Name: c.Name, Topo: topo, Mode: mode, RatePerSec: c.Rate,
		Duration: time.Duration(c.Duration), Seed: c.Seed, Faults: c.Faults,
	}
	defer func() { debugServingStep = nil }()
	steps, pooled := 0, false
	debugServingStep = func(p *Platform) {
		steps++
		pooled = pooled || len(p.launchFree) > 0
		checkTokenRegistry(t, p)
	}
	res, err := RunServing(testArtifacts(t), cell)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Faults; f.RequestsRetried == 0 || f.RecoveryP99 == 0 {
		t.Fatal("faults.json cell completed no disrupted request")
	}
	if _, err := RunServing(testSplitArtifacts(t), crashChurnConfig(ModeVanillaFPGA, Options{})); err != nil {
		t.Fatal(err)
	}
	res, err = RunServing(testArtifacts(t), partitionSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.RequestsDisrupted == 0 {
		t.Fatal("partitions killed no in-flight transfer")
	}
	if steps == 0 || !pooled {
		t.Fatalf("%d steps, pooled launches seen: %v — nothing exercised", steps, pooled)
	}
}
