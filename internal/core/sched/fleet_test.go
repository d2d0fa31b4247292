package sched

import (
	"testing"

	"xartrek/internal/core/threshold"
	"xartrek/internal/xclbin"
)

func TestFleetPicksLeastLoadedARMNode(t *testing.T) {
	loads := map[int]int{1: 7, 3: 2, 5: 2}
	fleet := Fleet{
		ARMNodes: []int{1, 3, 5},
		Loads:    fleetLoads([]int{1, 3, 5}, loads),
	}
	// Load 32 exceeds ARMThr 31 and FPGAThr 16, no device → lines
	// 14-18, ARM class.
	srv := NewFleetServer(testTable(t), func() int { return 32 }, fleet, nil)
	d, err := srv.Decide("app", "KNL")
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != threshold.TargetARM {
		t.Fatalf("target = %v, want arm", d.Target)
	}
	// Nodes 3 and 5 tie at load 2; the lower identifier wins.
	if d.ARMNode != 3 {
		t.Fatalf("ARM placement = %d, want 3 (least loaded, lowest id)", d.ARMNode)
	}
}

func TestFleetWithoutARMNodesNeverPicksARM(t *testing.T) {
	dev := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	fleet := Fleet{Devices: []Device{dev}}
	// Load 40 exceeds both thresholds; with no ARM candidates the ARM
	// threshold acts as Never, so the kernel-resident FPGA wins.
	srv := NewFleetServer(testTable(t), func() int { return 40 }, fleet, nil)
	d, err := srv.Decide("app", "KNL")
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != threshold.TargetFPGA {
		t.Fatalf("target = %v, want fpga", d.Target)
	}
}

func TestFleetFindsKernelOnLowestDevice(t *testing.T) {
	dev0 := &fakeDevice{kernels: map[string]bool{}}
	dev1 := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	dev2 := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	fleet := Fleet{
		ARMNodes: []int{9},
		Loads:    NewLoadIndex(1),
		Devices:  []Device{dev0, dev1, dev2},
	}
	// Load 20: above FPGAThr 16, below ARMThr 31, kernel resident →
	// lines 25-31 pick the FPGA (FPGAThr < ARMThr).
	srv := NewFleetServer(testTable(t), func() int { return 20 }, fleet, nil)
	d, err := srv.Decide("app", "KNL")
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != threshold.TargetFPGA || d.Device != 1 {
		t.Fatalf("decision = %+v, want fpga on device 1", d)
	}
}

func TestFleetReconfigSkipsBusyDevices(t *testing.T) {
	busy := &fakeDevice{kernels: map[string]bool{}, reconfiguring: true}
	idle := &fakeDevice{kernels: map[string]bool{}}
	fleet := Fleet{
		ARMNodes: []int{9},
		Loads:    NewLoadIndex(1),
		Devices:  []Device{busy, idle},
	}
	images := []*xclbin.XCLBIN{imageWith(t, "KNL")}
	// Load 20: FPGA threshold exceeded, kernel absent, ARM not
	// justified → stay on x86 and reconfigure in the background; the
	// busy card is skipped and the idle one programmed.
	srv := NewFleetServer(testTable(t), func() int { return 20 }, fleet, images)
	d, err := srv.Decide("app", "KNL")
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != threshold.TargetX86 || !d.ReconfigStarted {
		t.Fatalf("decision = %+v, want x86 with reconfig", d)
	}
	if len(busy.programs) != 0 || len(idle.programs) != 1 {
		t.Fatalf("programs: busy=%d idle=%d, want 0/1", len(busy.programs), len(idle.programs))
	}
}

func TestFleetSingleNodeMatchesFixedServer(t *testing.T) {
	// NewServer is the fleet server over one ARM node (identifier 0)
	// and at most one device: a fleet built directly that way must make
	// the same decisions across the whole load range.
	for load := 0; load <= 40; load++ {
		devA := &fakeDevice{kernels: map[string]bool{"KNL": true}}
		devB := &fakeDevice{kernels: map[string]bool{"KNL": true}}
		l := load
		fixed := NewServer(testTable(t), func() int { return l }, devA, nil)
		fleet := NewFleetServer(testTable(t), func() int { return l }, Fleet{
			ARMNodes: []int{0},
			Loads:    NewLoadIndex(1),
			Devices:  []Device{devB},
		}, nil)
		df, err := fixed.Decide("app", "KNL")
		if err != nil {
			t.Fatal(err)
		}
		dg, err := fleet.Decide("app", "KNL")
		if err != nil {
			t.Fatal(err)
		}
		if df != dg {
			t.Fatalf("load %d: fixed %+v != fleet %+v", load, df, dg)
		}
	}
}

func TestFleetReconfigWaitsForPendingKernel(t *testing.T) {
	// Card 0 is mid-download of an image that carries the kernel; the
	// server must not duplicate that image onto the idle card 1.
	busy := &fakeDevice{kernels: map[string]bool{}, reconfiguring: true, pending: map[string]bool{"KNL": true}}
	idle := &fakeDevice{kernels: map[string]bool{}}
	fleet := Fleet{
		ARMNodes: []int{9},
		Loads:    NewLoadIndex(1),
		Devices:  []Device{busy, idle},
	}
	images := []*xclbin.XCLBIN{imageWith(t, "KNL")}
	srv := NewFleetServer(testTable(t), func() int { return 20 }, fleet, images)
	d, err := srv.Decide("app", "KNL")
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != threshold.TargetX86 || d.ReconfigStarted {
		t.Fatalf("decision = %+v, want x86 without a duplicate reconfig", d)
	}
	if len(idle.programs) != 0 {
		t.Fatalf("idle card programmed %d times, want 0", len(idle.programs))
	}
}
