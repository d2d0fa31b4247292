package exper

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/par"
)

// runServingAll runs every config through RunServing across the worker
// pool, results in config order.
func runServingAll(t *testing.T, arts *Artifacts, cfgs []ServingConfig) []ServingResult {
	t.Helper()
	out := make([]ServingResult, len(cfgs))
	err := par.ForEach(len(cfgs), func(i int) error {
		var err error
		out[i], err = RunServing(arts, cfgs[i])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// servingCampaignConfigs is the three-size campaign the acceptance
// criteria name: paper testbed, ~8 nodes, ~32 nodes with ≥2 FPGAs.
func servingCampaignConfigs() []ServingConfig {
	topos := []cluster.Topology{
		cluster.PaperTopology(),
		cluster.ScaleOutTopology("rack8", 4, 4, 2),
		cluster.ScaleOutTopology("rack32", 8, 24, 4),
	}
	var cfgs []ServingConfig
	for _, topo := range topos {
		for _, mode := range []Mode{ModeXarTrek, ModeVanillaX86} {
			cfgs = append(cfgs, ServingConfig{
				Topo:       topo,
				Mode:       mode,
				RatePerSec: 6,
				Duration:   30 * time.Second,
				Seed:       2021,
			})
		}
	}
	return cfgs
}

func TestRunServingDeterministicAcrossGOMAXPROCS(t *testing.T) {
	arts := testArtifacts(t)
	cfgs := servingCampaignConfigs()
	sweep := func() []ServingResult { return runServingAll(t, arts, cfgs) }
	var par1, par8 []ServingResult
	withGOMAXPROCS(1, func() { par1 = sweep() })
	withGOMAXPROCS(8, func() { par8 = sweep() })
	if !reflect.DeepEqual(par1, par8) {
		t.Fatalf("sweep differs between GOMAXPROCS=1 and 8:\n%v\n%v", par1, par8)
	}
	if len(par1) != len(cfgs) {
		t.Fatalf("results = %d, want %d", len(par1), len(cfgs))
	}
	// Repeating the sweep with the same seed is byte-identical.
	again := sweep()
	if !reflect.DeepEqual(par1, again) {
		t.Fatal("same-seed sweep diverged")
	}
	for i, r := range par1 {
		if r.Offered == 0 || r.Completed == 0 {
			t.Fatalf("config %d served nothing: %+v", i, r)
		}
		if r.P50 > r.P95 || r.P95 > r.P99 {
			t.Fatalf("config %d: percentiles not monotone: %+v", i, r)
		}
	}
}

func TestRunServingScaleOutAbsorbsOfferedLoad(t *testing.T) {
	arts := testArtifacts(t)
	run := func(topo cluster.Topology) ServingResult {
		r, err := RunServing(arts, ServingConfig{
			Topo: topo, Mode: ModeVanillaX86, RatePerSec: 8,
			Duration: 30 * time.Second, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	paper := run(cluster.PaperTopology())
	rack := run(cluster.ScaleOutTopology("rack8", 4, 4, 2))
	if paper.Offered != rack.Offered {
		t.Fatalf("offered diverged: %d vs %d (same seed)", paper.Offered, rack.Offered)
	}
	// At 8 req/s the single 6-core host saturates; four entry nodes
	// must complete more within the horizon and with a lower p99.
	if rack.Completed <= paper.Completed {
		t.Fatalf("rack8 completed %d, paper %d — scale-out did not help", rack.Completed, paper.Completed)
	}
	if rack.P99 >= paper.P99 {
		t.Fatalf("rack8 p99 %v not below paper %v", rack.P99, paper.P99)
	}
	if rack.MeanHostLoad >= paper.MeanHostLoad {
		t.Fatalf("rack8 host load %.1f not below paper %.1f", rack.MeanHostLoad, paper.MeanHostLoad)
	}
}

func TestRunServingTraceDriven(t *testing.T) {
	arts := testArtifacts(t)
	trace := []time.Duration{0, 0, time.Second, 2 * time.Second, 90 * time.Second}
	r, err := RunServing(arts, ServingConfig{
		Name: "trace", Topo: cluster.PaperTopology(), Mode: ModeVanillaX86,
		Duration: 60 * time.Second, Seed: 1, Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The offset at 90s lies past the horizon and is dropped.
	if r.Offered != 4 {
		t.Fatalf("offered = %d, want 4", r.Offered)
	}
	if r.Completed != 4 {
		t.Fatalf("completed = %d, want 4", r.Completed)
	}
	if r.Name != "trace" {
		t.Fatalf("name = %q", r.Name)
	}
}

func TestRunServingTraceUnsorted(t *testing.T) {
	arts := testArtifacts(t)
	run := func(trace []time.Duration) ServingResult {
		r, err := RunServing(arts, ServingConfig{
			Name: "unsorted", Topo: cluster.PaperTopology(), Mode: ModeVanillaX86,
			Duration: 60 * time.Second, Seed: 1, Trace: trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Lazy injection chains arrivals in slice order; an out-of-order
	// trace must be reordered, not panic the simulator with a
	// schedule-in-the-past. Same-instant entries keep trace order.
	unsorted := run([]time.Duration{2 * time.Second, 0, time.Second, time.Second})
	if unsorted.Offered != 4 || unsorted.Completed != 4 {
		t.Fatalf("unsorted trace served %d/%d, want 4/4", unsorted.Completed, unsorted.Offered)
	}
}

func TestRunServingRejectsBadConfigs(t *testing.T) {
	arts := testArtifacts(t)
	cases := []struct {
		cfg  ServingConfig
		want string
	}{
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, RatePerSec: 1}, "duration"},
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, Duration: time.Second}, "rate"},
		{ServingConfig{Topo: cluster.PaperTopology(), Mode: ModeXarTrek, Duration: time.Second,
			Trace: []time.Duration{-time.Second}}, "negative trace"},
		{ServingConfig{Topo: cluster.Topology{Name: "bad"}, Mode: ModeXarTrek, RatePerSec: 1,
			Duration: time.Second}, "no nodes"},
	}
	for i, tc := range cases {
		_, err := RunServing(arts, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
}

func TestServingBurstSpreadsAcrossEntryNodes(t *testing.T) {
	arts := testArtifacts(t)
	// Twelve simultaneous arrivals against one vs two x86 nodes
	// (CPU-only, x86-only, so execution time depends purely on entry
	// contention). Placements land in the run queue only after every
	// same-instant arrival event has executed, so without same-instant
	// bookkeeping the front end would pile the whole burst onto node 0
	// and the two-node cluster would behave exactly like the one-node
	// cluster.
	burst := make([]time.Duration, 12)
	run := func(nX86 int) ServingResult {
		r, err := RunServing(arts, ServingConfig{
			Topo: cluster.ScaleOutTopology("flat", nX86, 0, 0), Mode: ModeVanillaX86,
			Duration: 5 * time.Minute, Seed: 3, Trace: burst,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one, two := run(1), run(2)
	if one.Completed != 12 || two.Completed != 12 {
		t.Fatalf("completions: one=%d two=%d, want 12", one.Completed, two.Completed)
	}
	if two.P99 >= one.P99 {
		t.Fatalf("burst not balanced: p99 with two entry nodes (%v) not below one node (%v)", two.P99, one.P99)
	}
}
