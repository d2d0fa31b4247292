package xartrek

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xartrek/internal/exper"
)

var (
	facadeOnce sync.Once
	facadeArts *Artifacts
	facadeErr  error
)

func facadeArtifacts(t *testing.T) *Artifacts {
	t.Helper()
	facadeOnce.Do(func() {
		apps, err := Benchmarks()
		if err != nil {
			facadeErr = err
			return
		}
		facadeArts, facadeErr = Build(apps)
	})
	if facadeErr != nil {
		t.Fatalf("build: %v", facadeErr)
	}
	return facadeArts
}

func TestBenchmarksReturnFiveApps(t *testing.T) {
	apps, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 5 {
		t.Fatalf("apps = %d, want 5", len(apps))
	}
}

func TestQuickstartFlow(t *testing.T) {
	arts := facadeArtifacts(t)
	set := []*App{arts.Apps[0], arts.Apps[3]}
	res, err := RunSet(arts, set, ModeXarTrek, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Average <= 0 || len(res.Runs) != 2 {
		t.Fatalf("result = %+v", res)
	}
}

func TestEstimateThresholdsViaFacade(t *testing.T) {
	apps, err := Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := EstimateThresholds(apps[:2])
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("rows = %d", tab.Len())
	}
	// The table serialises and parses back through the facade.
	again, err := ParseThresholdTable(strings.NewReader(tab.String()))
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != tab.String() {
		t.Fatal("threshold table round trip mismatch")
	}
}

// runFacadeCampaign runs a one-spec campaign through the facade.
func runFacadeCampaign(t *testing.T, cells ...CellSpec) *Report {
	t.Helper()
	rep, err := RunCampaign(facadeArtifacts(t), CampaignSpec{Name: t.Name(), Cells: cells}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRandomSetDeterministicForSeed(t *testing.T) {
	// A set cell with set_size draws its applications from its seed.
	rep := runFacadeCampaign(t, CellSpec{Kind: KindSet, SetSize: 5, Seeds: []int64{3, 3}, Mode: "vanilla-x86"})
	drawn := func(c CellResult) []string {
		var names []string
		for _, r := range c.Set.Runs {
			names = append(names, r.App)
		}
		slices.Sort(names)
		return names
	}
	a, b := drawn(rep.Cells[0]), drawn(rep.Cells[1])
	if len(a) != 5 || !slices.Equal(a, b) {
		t.Fatalf("same seed drew different sets: %v vs %v", a, b)
	}
}

func TestRunThroughputViaFacade(t *testing.T) {
	arts := facadeArtifacts(t)
	fd := arts.Apps[1] // FaceDet320
	r, err := RunThroughput(arts, fd, ModeVanillaX86, 0, 10*time.Second, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Images <= 0 {
		t.Fatalf("images = %d", r.Images)
	}
}

func TestRunWavesViaFacade(t *testing.T) {
	rep := runFacadeCampaign(t, CellSpec{Kind: KindWaves, Mode: "xar-trek",
		Waves: 2, PerWave: 5, Interval: Duration(5 * time.Second), Seed: 1})
	if r := rep.Cells[0].Waves; r.Runs != 10 {
		t.Fatalf("runs = %d, want 10", r.Runs)
	}
}

func TestPlacementPolicyViaFacade(t *testing.T) {
	// A policy-comparison cell without a policy axis runs every
	// built-in policy, here on split images over a slow cross-rack hop.
	rep := runFacadeCampaign(t, CellSpec{
		Kind: KindPolicyComparison, SplitImages: true,
		Topology: &TopologySpec{Kind: "cross-rack", Name: "xrack", X86: 2, ARMNear: 1, ARMFar: 1, FPGAs: 2},
		Rate:     8, Duration: Duration(10 * time.Second), Seed: 2021,
	})
	want := []string{PolicyDefault, PolicyLinkAware, PolicyAffinity}
	if len(rep.Cells) != len(want) {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), len(want))
	}
	for i, c := range rep.Cells {
		if c.Serving.Policy != want[i] {
			t.Fatalf("cell %d policy = %q, want %q", i, c.Serving.Policy, want[i])
		}
		if c.Serving.Completed == 0 {
			t.Fatalf("policy %s completed nothing", c.Serving.Policy)
		}
	}
}

func TestMMPPTraceViaFacade(t *testing.T) {
	// A serving cell with MMPP regimes replays the trace its seed draws
	// over its duration.
	rep := runFacadeCampaign(t, CellSpec{
		Name: "mmpp", Kind: KindServing, Mode: "vanilla-x86",
		Duration: Duration(30 * time.Second), Seed: 1,
		MMPP: []MMPPStateSpec{
			{RatePerSec: 20, MeanSojourn: Duration(time.Second)},
			{RatePerSec: 1, MeanSojourn: Duration(4 * time.Second)},
		},
	})
	trace, err := exper.MMPPTrace(1, 30*time.Second, []exper.MMPPState{
		{RatePerSec: 20, MeanSojourn: time.Second},
		{RatePerSec: 1, MeanSojourn: 4 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Cells[0].Serving; len(trace) == 0 || r.Offered != len(trace) {
		t.Fatalf("offered = %d, want the trace's %d arrivals", r.Offered, len(trace))
	}
}
