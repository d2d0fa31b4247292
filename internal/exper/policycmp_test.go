package exper

import (
	"sync"
	"testing"
	"time"

	"xartrek/internal/workloads"
)

var (
	splitArtsOnce sync.Once
	splitArtsVal  *Artifacts
	splitArtsErr  error
)

// testSplitArtifacts builds (once) the per-kernel-image artifact set
// the policy-comparison campaign runs on.
func testSplitArtifacts(t testing.TB) *Artifacts {
	t.Helper()
	splitArtsOnce.Do(func() {
		apps, err := workloads.Registry()
		if err != nil {
			splitArtsErr = err
			return
		}
		splitArtsVal, splitArtsErr = BuildArtifactsSplitImages(apps)
	})
	if splitArtsErr != nil {
		t.Fatalf("split artifacts: %v", splitArtsErr)
	}
	return splitArtsVal
}

// perPolicy returns cfg once per built-in placement policy, in report
// order, with everything else held fixed.
func perPolicy(cfg ServingConfig) []ServingConfig {
	var cfgs []ServingConfig
	for _, policy := range Policies() {
		c := cfg
		c.Opts.Policy = policy
		cfgs = append(cfgs, c)
	}
	return cfgs
}

func TestBuildArtifactsSplitImagesOnePerKernel(t *testing.T) {
	arts := testSplitArtifacts(t)
	hw := 0
	for _, a := range arts.Apps {
		if a.HWCapable {
			hw++
		}
	}
	if got := len(arts.Compile.Images); got != hw {
		t.Fatalf("images = %d, want one per hardware kernel (%d)", got, hw)
	}
	for i, img := range arts.Compile.Images {
		if len(img.Kernels) != 1 {
			t.Fatalf("image %d carries %d kernels, want 1", i, len(img.Kernels))
		}
	}
}

// TestPolicyComparisonAcceptance pins the acceptance criteria of the
// policy layer on the canonical cross-rack campaign cell: under a
// saturating open-loop load, link-aware placement must beat the
// default least-loaded rule on p99 latency (it stops paying the slow
// hop per migration), and affinity placement must start fewer
// scheduler reconfigurations at equal-or-better throughput (pinned
// kernels stop evicting each other).
func TestPolicyComparisonAcceptance(t *testing.T) {
	arts := testSplitArtifacts(t)
	results := runServingAll(t, arts, perPolicy(ServingConfig{
		Topo:       PolicyComparisonTopology(),
		Mode:       ModeXarTrek,
		RatePerSec: 48,
		Duration:   60 * time.Second,
		Seed:       2021,
	}))
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	def, link, aff := results[0], results[1], results[2]
	if def.Policy != PolicyDefault || link.Policy != PolicyLinkAware || aff.Policy != PolicyAffinity {
		t.Fatalf("policy labels wrong: %q %q %q", def.Policy, link.Policy, aff.Policy)
	}
	if def.Sched.ToARM == 0 {
		t.Fatal("campaign cell drove no ARM migrations; the comparison is vacuous")
	}
	if link.P99 >= def.P99 {
		t.Fatalf("link-aware p99 %v not below default %v", link.P99, def.P99)
	}
	if link.ThroughputPerSec < def.ThroughputPerSec {
		t.Fatalf("link-aware throughput %.2f below default %.2f", link.ThroughputPerSec, def.ThroughputPerSec)
	}
	if aff.Sched.ReconfigsStarted >= def.Sched.ReconfigsStarted {
		t.Fatalf("affinity started %d reconfigs, default %d — no churn reduction",
			aff.Sched.ReconfigsStarted, def.Sched.ReconfigsStarted)
	}
	if aff.ThroughputPerSec < def.ThroughputPerSec {
		t.Fatalf("affinity throughput %.2f below default %.2f", aff.ThroughputPerSec, def.ThroughputPerSec)
	}
}

func TestServingSurfacesReconfigCounterSplit(t *testing.T) {
	// The observability fix: a serving run must report the
	// reconfiguration outcome split, distinguishing benign
	// already-pending skips from all-cards-busy deferrals.
	arts := testSplitArtifacts(t)
	r, err := RunServing(arts, ServingConfig{
		Topo:       PolicyComparisonTopology(),
		Mode:       ModeXarTrek,
		RatePerSec: 48,
		Duration:   30 * time.Second,
		Seed:       2021,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sched.Requests == 0 {
		t.Fatal("no scheduling requests recorded")
	}
	if r.Sched.ReconfigsSkippedPending == 0 {
		t.Fatal("no skipped-pending reconfigs observed under image contention")
	}
	if r.Sched.ReconfigsAllBusy == 0 {
		t.Fatal("no all-busy deferrals observed under image contention")
	}
	if r.FPGAReconfigs == 0 {
		t.Fatal("device fleet reports zero reconfigurations")
	}
}

func TestRunServingRejectsUnknownPolicy(t *testing.T) {
	arts := testArtifacts(t)
	_, err := RunServing(arts, ServingConfig{
		Topo: PolicyComparisonTopology(), Mode: ModeXarTrek,
		RatePerSec: 1, Duration: time.Second, Seed: 1, Opts: Options{Policy: "round-robin"},
	})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestPolicyComparisonDeterministic(t *testing.T) {
	arts := testSplitArtifacts(t)
	cfg := ServingConfig{
		Topo: PolicyComparisonTopology(), Mode: ModeXarTrek,
		RatePerSec: 24, Duration: 20 * time.Second, Seed: 7,
	}
	a := runServingAll(t, arts, perPolicy(cfg))
	b := runServingAll(t, arts, perPolicy(cfg))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("policy %s diverged between identical runs:\n%+v\n%+v", a[i].Policy, a[i], b[i])
		}
	}
}
