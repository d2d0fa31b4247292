package exper

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"xartrek/internal/workloads"
)

// withGOMAXPROCS runs fn under the given GOMAXPROCS setting.
func withGOMAXPROCS(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestRunFixedLoadSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	arts := testArtifacts(t)
	modes := []Mode{ModeXarTrek, ModeVanillaX86}
	sweep := func() []FixedLoadPoint {
		pts, err := RunFixedLoadSweep(arts, []int{2, 5}, modes, 20, 2, 2021)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}

	var seq, par4, par1 []FixedLoadPoint
	withGOMAXPROCS(1, func() { par1 = sweep() })
	withGOMAXPROCS(4, func() { par4 = sweep() })
	seq = sweep()

	if !reflect.DeepEqual(par1, par4) {
		t.Fatalf("sweep differs between GOMAXPROCS=1 and 4:\n%v\n%v", par1, par4)
	}
	if !reflect.DeepEqual(seq, par4) {
		t.Fatalf("sweep differs between default and GOMAXPROCS=4:\n%v\n%v", seq, par4)
	}
	// Shape: one point per (size, mode), in declaration order.
	if len(seq) != 4 {
		t.Fatalf("points = %d, want 4", len(seq))
	}
	want := []struct {
		size int
		mode Mode
	}{{2, ModeXarTrek}, {2, ModeVanillaX86}, {5, ModeXarTrek}, {5, ModeVanillaX86}}
	for i, w := range want {
		if seq[i].SetSize != w.size || seq[i].Mode != w.mode {
			t.Fatalf("point %d = (%d, %v), want (%d, %v)", i, seq[i].SetSize, seq[i].Mode, w.size, w.mode)
		}
	}
}

func TestRunProfitabilityStudyDeterministicAcrossGOMAXPROCS(t *testing.T) {
	arts := testArtifacts(t)
	modes := []Mode{ModeXarTrek, ModeVanillaX86}
	study := func() []MixPoint {
		pts, err := RunProfitabilityStudy(arts, []int{0, 50, 100}, modes, 6, 40)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	var par1, par4 []MixPoint
	withGOMAXPROCS(1, func() { par1 = study() })
	withGOMAXPROCS(4, func() { par4 = study() })
	if !reflect.DeepEqual(par1, par4) {
		t.Fatalf("study differs between GOMAXPROCS=1 and 4:\n%v\n%v", par1, par4)
	}
	if len(par1) != 6 {
		t.Fatalf("points = %d, want 6", len(par1))
	}
}

func TestRunPeriodicThroughputModesMatchesSequential(t *testing.T) {
	arts := testArtifacts(t)
	fd, err := workloads.NewFaceDet320()
	if err != nil {
		t.Fatal(err)
	}
	modes := []Mode{ModeXarTrek, ModeVanillaX86}
	got, err := RunPeriodicThroughputModes(arts, fd, modes, 5, 30, 3, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(modes) {
		t.Fatalf("results = %d, want %d", len(got), len(modes))
	}
	for i, mode := range modes {
		want, err := RunPeriodicThroughput(arts, fd, mode, 5, 30, 3, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("mode %v: parallel result %+v != sequential %+v", mode, got[i], want)
		}
	}
}

// TestSweepsRejectRunsBelowOne pins the sweeps' repetition bounds:
// below one there is nothing to average, and past maxProcesses the
// per-run slices would fail to allocate or exhaust memory. Both fail
// before any simulation.
func TestSweepsRejectRunsBelowOne(t *testing.T) {
	arts := testArtifacts(t)
	fd, err := workloads.NewFaceDet320()
	if err != nil {
		t.Fatal(err)
	}
	for _, runs := range []int{0, -1, 1_000_000_000_000_000, maxProcesses + 1} {
		if _, err := RunFixedLoadSweep(arts, []int{2}, DefaultModes(), 20, runs, 2021); err == nil {
			t.Fatalf("RunFixedLoadSweep accepted runs=%d", runs)
		}
		if _, err := RunPeriodicThroughput(arts, fd, ModeXarTrek, 5, 30, runs, time.Second); err == nil {
			t.Fatalf("RunPeriodicThroughput accepted runs=%d", runs)
		}
		if _, err := RunPeriodicThroughputModes(arts, fd, DefaultModes(), 5, 30, runs, time.Second); err == nil {
			t.Fatalf("RunPeriodicThroughputModes accepted runs=%d", runs)
		}
	}
}
