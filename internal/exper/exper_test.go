package exper

import (
	"sync"
	"testing"
	"time"

	"xartrek/internal/core/threshold"
	"xartrek/internal/workloads"
)

// sharedArtifacts builds the five-benchmark artifact set once; the
// pipeline plus threshold estimation dominates test setup time.
var (
	artsOnce sync.Once
	artsVal  *Artifacts
	artsErr  error
)

func testArtifacts(t testing.TB) *Artifacts {
	t.Helper()
	artsOnce.Do(func() {
		apps, err := workloads.Registry()
		if err != nil {
			artsErr = err
			return
		}
		artsVal, artsErr = BuildArtifacts(apps)
	})
	if artsErr != nil {
		t.Fatalf("artifacts: %v", artsErr)
	}
	return artsVal
}

func TestBuildArtifactsCompletePipeline(t *testing.T) {
	arts := testArtifacts(t)
	if arts.Compile == nil || len(arts.Compile.Images) == 0 {
		t.Fatal("no XCLBIN images")
	}
	if arts.Table.Len() != 5 {
		t.Fatalf("threshold rows = %d, want 5", arts.Table.Len())
	}
	for _, app := range arts.Apps {
		if !app.HWCapable {
			continue
		}
		if _, ok := arts.Compile.ImageFor(app.KernelName); !ok {
			t.Fatalf("kernel %s missing from images", app.KernelName)
		}
	}
}

func TestPlatformIsolation(t *testing.T) {
	arts := testArtifacts(t)
	p1 := NewPlatform(arts)
	p2 := NewPlatform(arts)
	// Mutating p1's table must not affect p2 (Algorithm 1 updates are
	// per-experiment).
	if _, err := p1.Server.Report("CG-A", threshold.TargetX86, time.Hour); err != nil {
		t.Fatal(err)
	}
	r1, err := p1.Server.Table().Get("CG-A")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.Server.Table().Get("CG-A")
	if err != nil {
		t.Fatal(err)
	}
	if r1.X86Exec == r2.X86Exec {
		t.Fatal("platforms share a threshold table")
	}
}

func TestLaunchAppVanillaX86MatchesCalibration(t *testing.T) {
	arts := testArtifacts(t)
	p := NewPlatform(arts)
	app := arts.Apps[0] // CG-A
	var got RunResult
	p.LaunchApp(app, ModeVanillaX86, 0, func(r RunResult) { got = r })
	p.Run()
	want := app.X86Time()
	if d := got.Elapsed() - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("elapsed = %v, want ~%v", got.Elapsed(), want)
	}
	if got.Target != threshold.TargetX86 {
		t.Fatalf("target = %v", got.Target)
	}
}

func TestLaunchAppXarTrekLowLoadStaysLocal(t *testing.T) {
	arts := testArtifacts(t)
	p := NewPlatform(arts)
	// CG-A alone: load 1 is below both thresholds → x86.
	cga := arts.Apps[0]
	var got RunResult
	p.LaunchApp(cga, ModeXarTrek, 0, func(r RunResult) { got = r })
	p.Run()
	if got.Target != threshold.TargetX86 {
		t.Fatalf("CG-A at load 1 ran on %v, want x86", got.Target)
	}
}

func TestLaunchAppXarTrekZeroThresholdGoesToFPGA(t *testing.T) {
	arts := testArtifacts(t)
	p := NewPlatform(arts)
	// Digit2000 has FPGA threshold 0: any load exceeds it. The first
	// launch finds the kernel still configuring (pre-configuration
	// started at its main), so Algorithm 2 hides the latency on x86;
	// a later launch finds the kernel resident and migrates.
	var d2000 *workloads.App
	for _, a := range arts.Apps {
		if a.Name == "Digit2000" {
			d2000 = a
		}
	}
	var first, second RunResult
	p.LaunchApp(d2000, ModeXarTrek, 0, func(r RunResult) { first = r })
	p.LaunchApp(d2000, ModeXarTrek, 10*time.Second, func(r RunResult) { second = r })
	p.Run()
	if first.Target != threshold.TargetX86 {
		t.Fatalf("first run on %v, want x86 (reconfiguration hidden)", first.Target)
	}
	if second.Target != threshold.TargetFPGA {
		t.Fatalf("second run on %v, want fpga", second.Target)
	}
	// The migrated run must beat the app's own x86 time.
	if second.Elapsed() >= d2000.X86Time() {
		t.Fatalf("fpga run %v not faster than x86 %v", second.Elapsed(), d2000.X86Time())
	}
}

func TestRunSetLowLoadXarTrekMatchesVanillaX86(t *testing.T) {
	// Figure 3's key observation: during low loads Xar-Trek performs
	// like the x86-only baseline because it does not migrate.
	arts := testArtifacts(t)
	set := []*workloads.App{arts.Apps[0], arts.Apps[1]} // CG-A + FaceDet320
	xar, err := RunSet(arts, set, ModeXarTrek, 0)
	if err != nil {
		t.Fatal(err)
	}
	x86, err := RunSet(arts, set, ModeVanillaX86, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(xar.Average) / float64(x86.Average)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("low-load xar/x86 = %.3f, want ~1", ratio)
	}
}

func TestRunSetMediumLoadXarTrekWins(t *testing.T) {
	// Figures 4-5: with background load, Xar-Trek outperforms the
	// x86-only baseline by migrating to ARM/FPGA.
	arts := testArtifacts(t)
	set := RandomSet(newTestRNG(1), arts.Apps, 5)
	xar, err := RunSet(arts, set, ModeXarTrek, 60)
	if err != nil {
		t.Fatal(err)
	}
	x86, err := RunSet(arts, set, ModeVanillaX86, 60)
	if err != nil {
		t.Fatal(err)
	}
	if xar.Average >= x86.Average {
		t.Fatalf("medium load: xar %v not faster than x86 %v", xar.Average, x86.Average)
	}
}

func TestRunSetDeterministic(t *testing.T) {
	arts := testArtifacts(t)
	set := RandomSet(newTestRNG(7), arts.Apps, 4)
	a, err := RunSet(arts, set, ModeXarTrek, 30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSet(arts, set, ModeXarTrek, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.Average != b.Average {
		t.Fatalf("same experiment diverged: %v vs %v", a.Average, b.Average)
	}
}

func TestRunThroughputShape(t *testing.T) {
	// Figure 6's shape: at zero load Xar-Trek matches vanilla x86 and
	// beats always-FPGA; under load Xar-Trek beats vanilla x86 by a
	// large factor and is at least as good as always-FPGA.
	arts := testArtifacts(t)
	fd, err := workloads.NewFaceDet320()
	if err != nil {
		t.Fatal(err)
	}
	const dur = 60 * time.Second

	measure := func(mode Mode, load int) ThroughputResult {
		r, err := RunThroughput(arts, fd, mode, load, dur, 1000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	xar0, x860, fpga0 := measure(ModeXarTrek, 0), measure(ModeVanillaX86, 0), measure(ModeVanillaFPGA, 0)
	if xar0.Images != x860.Images {
		t.Fatalf("load 0: xar %d != x86 %d", xar0.Images, x860.Images)
	}
	if xar0.Images <= fpga0.Images {
		t.Fatalf("load 0: xar %d not above always-fpga %d", xar0.Images, fpga0.Images)
	}

	xar50, x8650, fpga50 := measure(ModeXarTrek, 50), measure(ModeVanillaX86, 50), measure(ModeVanillaFPGA, 50)
	if xar50.Images < 3*x8650.Images {
		t.Fatalf("load 50: xar %d not >= 3x x86 %d", xar50.Images, x8650.Images)
	}
	if xar50.Images < fpga50.Images {
		t.Fatalf("load 50: xar %d below always-fpga %d", xar50.Images, fpga50.Images)
	}
}

func TestRunWavesXarTrekOutperformsBaselines(t *testing.T) {
	// Figure 7 (scaled down): waves of applications; Xar-Trek beats
	// both vanilla x86 and always-FPGA.
	arts := testArtifacts(t)
	const (
		waves    = 6
		perWave  = 10
		interval = 10 * time.Second
		seed     = 99
	)
	xar, err := RunWaves(arts, ModeXarTrek, waves, perWave, interval, seed)
	if err != nil {
		t.Fatal(err)
	}
	x86, err := RunWaves(arts, ModeVanillaX86, waves, perWave, interval, seed)
	if err != nil {
		t.Fatal(err)
	}
	fpga, err := RunWaves(arts, ModeVanillaFPGA, waves, perWave, interval, seed)
	if err != nil {
		t.Fatal(err)
	}
	if xar.Runs != waves*perWave {
		t.Fatalf("runs = %d, want %d", xar.Runs, waves*perWave)
	}
	if xar.Average >= x86.Average {
		t.Fatalf("waves: xar %v not faster than x86 %v", xar.Average, x86.Average)
	}
	if xar.Average >= fpga.Average {
		t.Fatalf("waves: xar %v not faster than always-fpga %v", xar.Average, fpga.Average)
	}
}

func TestRunProfitabilityEndpoints(t *testing.T) {
	// Figure 9: at 0% CG-A (all Digit2000) Xar-Trek wins big; at 100%
	// CG-A the x86 baseline wins (the paper's only losing case).
	arts := testArtifacts(t)
	pts, err := RunProfitabilityStudy(arts, []int{0, 100}, []Mode{ModeXarTrek, ModeVanillaX86}, 10, 120)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[[2]int]time.Duration)
	for _, p := range pts {
		byKey[[2]int{p.PercentCGA, int(p.Mode)}] = p.Average
	}
	if byKey[[2]int{0, int(ModeXarTrek)}] >= byKey[[2]int{0, int(ModeVanillaX86)}] {
		t.Fatal("0% CG-A: Xar-Trek should win")
	}
	if byKey[[2]int{100, int(ModeXarTrek)}] < byKey[[2]int{100, int(ModeVanillaX86)}] {
		t.Fatal("100% CG-A: vanilla x86 should win (paper's last data point)")
	}
}

func TestTriangleProfile(t *testing.T) {
	levels := make([]int, 0, 5)
	for i := 0; i < 5; i++ {
		levels = append(levels, triangle(i, 5, 10, 120))
	}
	if levels[0] != 10 || levels[4] != 10 {
		t.Fatalf("endpoints = %d,%d, want 10,10", levels[0], levels[4])
	}
	if levels[2] != 120 {
		t.Fatalf("midpoint = %d, want 120", levels[2])
	}
	if levels[1] <= levels[0] || levels[1] >= levels[2] {
		t.Fatalf("profile not monotone on the rise: %v", levels)
	}
}
