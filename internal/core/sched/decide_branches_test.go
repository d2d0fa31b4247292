package sched

import (
	"testing"
	"time"

	"xartrek/internal/core/threshold"
	"xartrek/internal/xclbin"
)

// TestDecideCoversEveryAlgorithm2Branch drives every branch of
// Algorithm 2's predicate space through Server.Decide and checks each
// branch's target and reconfiguration, under both the paper-testbed
// server (NewServer) and a single-node fleet server built directly
// with NewFleetServer. NewServer is the one-node fleet, so the two
// must decide identically; the pair pins that wiring.
func TestDecideCoversEveryAlgorithm2Branch(t *testing.T) {
	mkTable := func(fpgaThr, armThr int) *threshold.Table {
		tab := threshold.NewTable()
		if err := tab.Add(threshold.Record{
			App: "app", Kernel: "KNL", FPGAThr: fpgaThr, ARMThr: armThr,
			X86Exec:  175 * time.Millisecond,
			ARMExec:  642 * time.Millisecond,
			FPGAExec: 332 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	cases := []struct {
		name             string
		load             int
		fpgaThr, armThr  int
		kernelResident   bool
		imageAvailable   bool
		wantTarget       threshold.Target
		wantReconfig     bool
		wantReconfigures int // programs issued to the device
	}{
		{
			// Lines 19-21: light load, no migration.
			name: "lines19-21/low-load-x86",
			load: 5, fpgaThr: 16, armThr: 31,
			wantTarget: threshold.TargetX86,
		},
		{
			// Lines 9-13: FPGA pays but kernel absent, ARM does not pay
			// — hide the download behind continued x86 execution.
			name: "lines9-13/hide-reconfig-on-x86",
			load: 20, fpgaThr: 16, armThr: 31, imageAvailable: true,
			wantTarget: threshold.TargetX86, wantReconfig: true, wantReconfigures: 1,
		},
		{
			// Lines 14-18: both thresholds exceeded, kernel absent —
			// migrate to ARM now, reconfigure meanwhile.
			name: "lines14-18/arm-plus-reconfig",
			load: 40, fpgaThr: 16, armThr: 31, imageAvailable: true,
			wantTarget: threshold.TargetARM, wantReconfig: true, wantReconfigures: 1,
		},
		{
			// Lines 22-24: only the ARM threshold exceeded (flipped
			// table so ARMTHR < load <= FPGATHR).
			name: "lines22-24/arm-only",
			load: 20, fpgaThr: 31, armThr: 16,
			wantTarget: threshold.TargetARM,
		},
		{
			// Lines 25-31, FPGATHR < ARMTHR: resident kernel wins.
			name: "lines25-31/resident-fpga",
			load: 40, fpgaThr: 16, armThr: 31, kernelResident: true,
			wantTarget: threshold.TargetFPGA,
		},
		{
			// Lines 25-31, ARMTHR < FPGATHR: the smaller threshold
			// implies the smaller execution time — ARM despite the
			// resident kernel.
			name: "lines25-31/resident-but-arm-cheaper",
			load: 40, fpgaThr: 31, armThr: 16, kernelResident: true,
			wantTarget: threshold.TargetARM,
		},
		{
			// Lines 9-13 with no image for the kernel: the download
			// cannot start, the class decision stands.
			name: "lines9-13/no-image-no-reconfig",
			load: 20, fpgaThr: 16, armThr: 31,
			wantTarget: threshold.TargetX86,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var images []*xclbin.XCLBIN
			if tc.imageAvailable {
				images = []*xclbin.XCLBIN{imageWith(t, "KNL")}
			}
			kernels := map[string]bool{}
			if tc.kernelResident {
				kernels["KNL"] = true
			}
			devFixed := &fakeDevice{kernels: kernels}
			fixed := NewServer(mkTable(tc.fpgaThr, tc.armThr), func() int { return tc.load }, devFixed, images)

			devFleet := &fakeDevice{kernels: map[string]bool{}}
			for k := range kernels {
				devFleet.kernels[k] = true
			}
			fleet := NewFleetServer(mkTable(tc.fpgaThr, tc.armThr), func() int { return tc.load }, Fleet{
				ARMNodes: []int{0},
				Loads:    NewLoadIndex(1),
				Devices:  []Device{devFleet},
			}, images)

			df, err := fixed.Decide("app", "KNL")
			if err != nil {
				t.Fatal(err)
			}
			dg, err := fleet.Decide("app", "KNL")
			if err != nil {
				t.Fatal(err)
			}
			if df != dg {
				t.Fatalf("fixed %+v != fleet %+v (DefaultPolicy equivalence broken)", df, dg)
			}
			if df.Target != tc.wantTarget {
				t.Fatalf("target = %v, want %v", df.Target, tc.wantTarget)
			}
			if df.ReconfigStarted != tc.wantReconfig {
				t.Fatalf("reconfig = %v, want %v", df.ReconfigStarted, tc.wantReconfig)
			}
			if len(devFixed.programs) != tc.wantReconfigures || len(devFleet.programs) != tc.wantReconfigures {
				t.Fatalf("programs fixed=%d fleet=%d, want %d",
					len(devFixed.programs), len(devFleet.programs), tc.wantReconfigures)
			}
		})
	}
}

func TestDecideEmptyFleetActsAsNeverMigrate(t *testing.T) {
	// A fleet server over a topology with no ARM nodes and no devices:
	// every load stays on x86 (the ARM threshold acts as Never; no
	// hardware exists to configure).
	srv := NewFleetServer(testTable(t), func() int { return 1000 }, Fleet{}, []*xclbin.XCLBIN{imageWith(t, "KNL")})
	d, err := srv.Decide("app", "KNL")
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != threshold.TargetX86 || d.ReconfigStarted {
		t.Fatalf("decision = %+v, want x86 without reconfig", d)
	}
	st := srv.Stats()
	if st.ReconfigsAllBusy != 0 || st.ReconfigsSkippedPending != 0 {
		t.Fatalf("empty fleet moved reconfig counters: %+v", st)
	}
}

func TestDecideFleetWithNilLoadsUsesFirstARMNode(t *testing.T) {
	fleet := Fleet{ARMNodes: []int{7, 3}}
	srv := NewFleetServer(testTable(t), func() int { return 40 }, fleet, nil)
	d, err := srv.Decide("app", "KNL")
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != threshold.TargetARM || d.ARMNode != 7 {
		t.Fatalf("decision = %+v, want ARM on first candidate 7", d)
	}
}

func TestReconfigCounterSplitPendingVsAllBusy(t *testing.T) {
	images := []*xclbin.XCLBIN{imageWith(t, "KNL")}
	// Case 1: a download delivering the kernel is already in flight —
	// the benign skip.
	pending := &fakeDevice{reconfiguring: true, kernels: map[string]bool{}, pending: map[string]bool{"KNL": true}}
	idle := &fakeDevice{kernels: map[string]bool{}}
	srv := NewFleetServer(testTable(t), func() int { return 20 }, Fleet{
		ARMNodes: []int{9}, Loads: NewLoadIndex(1),
		Devices: []Device{pending, idle},
	}, images)
	if _, err := srv.Decide("app", "KNL"); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.ReconfigsSkippedPending != 1 || st.ReconfigsAllBusy != 0 || st.ReconfigsStarted != 0 {
		t.Fatalf("pending case stats = %+v, want one skipped-pending", st)
	}

	// Case 2: every card is busy with downloads that will NOT deliver
	// the kernel — the contention signal.
	busyA := &fakeDevice{reconfiguring: true, kernels: map[string]bool{}}
	busyB := &fakeDevice{reconfiguring: true, kernels: map[string]bool{}}
	srv = NewFleetServer(testTable(t), func() int { return 20 }, Fleet{
		ARMNodes: []int{9}, Loads: NewLoadIndex(1),
		Devices: []Device{busyA, busyB},
	}, images)
	if _, err := srv.Decide("app", "KNL"); err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if st.ReconfigsAllBusy != 1 || st.ReconfigsSkippedPending != 0 || st.ReconfigsStarted != 0 {
		t.Fatalf("all-busy case stats = %+v, want one all-busy", st)
	}
}

func TestDecideHotPathDoesNotAllocate(t *testing.T) {
	// The serving hot path calls Decide per request; the policy
	// extraction must not have put allocations on it.
	dev := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	srv := NewFleetServer(testTable(t), func() int { return 40 }, Fleet{
		ARMNodes: []int{0, 1},
		Loads:    NewLoadIndex(2),
		Devices:  []Device{dev},
	}, nil)
	avg := testing.AllocsPerRun(200, func() {
		if _, err := srv.Decide("app", "KNL"); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Decide allocates %.1f per call, want 0", avg)
	}
}
