package sched

import (
	"testing"
	"time"

	"xartrek/internal/core/threshold"
	"xartrek/internal/xclbin"
)

// testCtx is a minimal placement context for direct policy calls.
func testCtx(kernel string) PlacementContext {
	return PlacementContext{
		App:    "app",
		Kernel: kernel,
		Record: threshold.Record{App: "app", Kernel: kernel, ARMExec: 500 * time.Millisecond},
	}
}

// costRow is a Fleet.MigrationRow fake: every application's row holds
// cost(id) for each candidate id of nodes, in fleet order.
func costRow(nodes []int, cost func(id int) time.Duration) func(string) []float64 {
	row := make([]float64, len(nodes))
	for i, id := range nodes {
		row[i] = cost(id).Seconds()
	}
	return func(string) []float64 { return row }
}

func TestDefaultPolicyMatchesDocumentedRule(t *testing.T) {
	loads := map[int]int{1: 7, 3: 2, 5: 2}
	f := &Fleet{
		ARMNodes: []int{1, 3, 5},
		Loads:    fleetLoads([]int{1, 3, 5}, loads),
		Devices: []Device{
			&fakeDevice{kernels: map[string]bool{}},
			&fakeDevice{kernels: map[string]bool{"KNL": true}},
		},
	}
	node, ok := DefaultPolicy{}.PickARMNode(testCtx("KNL"), f)
	if !ok || node != 3 {
		t.Fatalf("ARM pick = %d/%v, want 3 (least loaded, lowest id)", node, ok)
	}
	dev, ok := DefaultPolicy{}.PickDevice(testCtx("KNL"), f)
	if !ok || dev != 1 {
		t.Fatalf("device pick = %d/%v, want 1", dev, ok)
	}
	if _, ok := (DefaultPolicy{}).PickDevice(testCtx("GHOST"), f); ok {
		t.Fatal("picked a device for a non-resident kernel")
	}
	order := DefaultPolicy{}.ReconfigOrder(testCtx("KNL"), f, nil)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("reconfig order = %v, want [0 1]", order)
	}
}

func TestDefaultPolicyZeroLoadsPicksFirst(t *testing.T) {
	f := &Fleet{ARMNodes: []int{4, 2}, Loads: NewLoadIndex(2)}
	node, ok := DefaultPolicy{}.PickARMNode(testCtx("KNL"), f)
	if !ok || node != 4 {
		t.Fatalf("pick = %d/%v, want first candidate 4", node, ok)
	}
}

func TestLinkAwareRepelsSlowLink(t *testing.T) {
	// Node 1 is near (fast link), node 2 far (slow hop). Equal loads:
	// the far node's transfer cost must repel placement even though
	// DefaultPolicy's tie-break would also land on 1 — so bias the
	// loads to make the least-loaded rule pick 2 and prove the
	// transfer term dominates.
	costs := map[int]time.Duration{1: 100 * time.Millisecond, 2: 2 * time.Second}
	loads := map[int]int{1: 5, 2: 1}
	f := &Fleet{
		ARMNodes:     []int{1, 2},
		Loads:        fleetLoads([]int{1, 2}, loads),
		NodeCores:    func(int) int { return 96 },
		MigrationRow: costRow([]int{1, 2}, func(id int) time.Duration { return costs[id] }),
		LinkQueue:    func(int) int { return 0 },
	}
	if node, _ := (DefaultPolicy{}).PickARMNode(testCtx("KNL"), f); node != 2 {
		t.Fatalf("default pick = %d, want 2 (least loaded)", node)
	}
	node, ok := LinkAwarePolicy{}.PickARMNode(testCtx("KNL"), f)
	if !ok || node != 1 {
		t.Fatalf("link-aware pick = %d/%v, want near node 1", node, ok)
	}
}

func TestLinkAwareWeighsLinkQueue(t *testing.T) {
	// Identical transfer costs and loads; node 1's link already
	// carries 5 transfers, each dividing its bandwidth.
	queues := map[int]int{1: 5, 2: 0}
	f := &Fleet{
		ARMNodes:     []int{1, 2},
		Loads:        NewLoadIndex(2),
		NodeCores:    func(int) int { return 96 },
		MigrationRow: costRow([]int{1, 2}, func(int) time.Duration { return time.Second }),
		LinkQueue:    func(id int) int { return queues[id] },
	}
	node, ok := LinkAwarePolicy{}.PickARMNode(testCtx("KNL"), f)
	if !ok || node != 2 {
		t.Fatalf("pick = %d/%v, want 2 (idle link)", node, ok)
	}
}

func TestLinkAwareOverflowsToFarNodeWhenNearSaturated(t *testing.T) {
	// The near node is loaded far past its core count: the
	// processor-sharing slowdown outweighs the far hop.
	loads := map[int]int{1: 600, 2: 0}
	costs := map[int]time.Duration{1: 100 * time.Millisecond, 2: 2 * time.Second}
	f := &Fleet{
		ARMNodes:     []int{1, 2},
		Loads:        fleetLoads([]int{1, 2}, loads),
		NodeCores:    func(int) int { return 96 },
		MigrationRow: costRow([]int{1, 2}, func(id int) time.Duration { return costs[id] }),
		LinkQueue:    func(int) int { return 0 },
	}
	node, ok := LinkAwarePolicy{}.PickARMNode(testCtx("KNL"), f)
	if !ok || node != 2 {
		t.Fatalf("pick = %d/%v, want overflow to far node 2", node, ok)
	}
}

func TestLinkAwareWithoutTransferContextFallsBackToLeastLoaded(t *testing.T) {
	// A fleet with no cost surfaces must order candidates like
	// DefaultPolicy (least loaded, ties toward fleet order).
	loads := map[int]int{1: 7, 3: 2, 5: 2}
	f := &Fleet{
		ARMNodes: []int{1, 3, 5},
		Loads:    fleetLoads([]int{1, 3, 5}, loads),
	}
	node, ok := LinkAwarePolicy{}.PickARMNode(testCtx("KNL"), f)
	if !ok || node != 3 {
		t.Fatalf("pick = %d/%v, want 3 (least loaded, lowest id)", node, ok)
	}
}

func TestAffinityPicksPinnedCard(t *testing.T) {
	dev0 := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	dev1 := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	f := &Fleet{Devices: []Device{dev0, dev1}}
	pol := NewAffinityPolicy(map[string]int{"KNL": 1})
	dev, ok := pol.PickDevice(testCtx("KNL"), f)
	if !ok || dev != 1 {
		t.Fatalf("pick = %d/%v, want pinned card 1", dev, ok)
	}
	// Pinned card loses the kernel: any resident card serves the
	// invocation (reading evicts nothing).
	dev1.kernels = map[string]bool{}
	dev, ok = pol.PickDevice(testCtx("KNL"), f)
	if !ok || dev != 0 {
		t.Fatalf("pick = %d/%v, want fallback card 0", dev, ok)
	}
}

func TestAffinityReconfigOnlyTargetsPinnedCard(t *testing.T) {
	idle := &fakeDevice{kernels: map[string]bool{}}
	pinned := &fakeDevice{kernels: map[string]bool{}}
	f := &Fleet{Devices: []Device{idle, pinned}}
	pol := NewAffinityPolicy(map[string]int{"KNL": 1})
	order := pol.ReconfigOrder(testCtx("KNL"), f, nil)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("order = %v, want [1]", order)
	}
	// Busy pinned card: defer rather than churn the other card.
	pinned.reconfiguring = true
	order = pol.ReconfigOrder(testCtx("KNL"), f, order[:0])
	if len(order) != 0 {
		t.Fatalf("order = %v, want empty while pinned card is busy", order)
	}
	// Unpinned kernels fall back to the default order.
	order = pol.ReconfigOrder(testCtx("OTHER"), f, order[:0])
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("unpinned order = %v, want [0]", order)
	}
}

func TestAffinityServerDefersReconfigWhilePinnedCardBusy(t *testing.T) {
	// End to end through Decide: the pinned card is mid-download of
	// another image; the idle card must stay untouched and the
	// deferral must land in ReconfigsAllBusy.
	idle := &fakeDevice{kernels: map[string]bool{}}
	pinned := &fakeDevice{kernels: map[string]bool{}, reconfiguring: true}
	fleet := Fleet{
		ARMNodes: []int{9},
		Loads:    NewLoadIndex(1),
		Devices:  []Device{idle, pinned},
		Policy:   NewAffinityPolicy(map[string]int{"KNL": 1}),
	}
	images := []*xclbin.XCLBIN{imageWith(t, "KNL")}
	srv := NewFleetServer(testTable(t), func() int { return 20 }, fleet, images)
	d, err := srv.Decide("app", "KNL")
	if err != nil {
		t.Fatal(err)
	}
	if d.ReconfigStarted {
		t.Fatalf("decision %+v started a reconfig off the pinned card", d)
	}
	if len(idle.programs) != 0 {
		t.Fatalf("idle card programmed %d times, want 0", len(idle.programs))
	}
	st := srv.Stats()
	if st.ReconfigsAllBusy != 1 || st.ReconfigsSkippedPending != 0 {
		t.Fatalf("stats = %+v, want exactly one all-busy deferral", st)
	}
}

func TestPolicyNameSurfacedByServer(t *testing.T) {
	fixed := NewServer(testTable(t), func() int { return 0 }, nil, nil)
	if got := fixed.Policy().Name(); got != "default" {
		t.Fatalf("fixed server policy = %q, want default", got)
	}
	fleet := NewFleetServer(testTable(t), func() int { return 0 }, Fleet{Policy: LinkAwarePolicy{}}, nil)
	if got := fleet.Policy().Name(); got != "link-aware" {
		t.Fatalf("fleet server policy = %q, want link-aware", got)
	}
}

func TestStatsAddAccumulates(t *testing.T) {
	a := Stats{Requests: 1, ToX86: 1, ReconfigsStarted: 2, ReconfigsSkippedPending: 3, ReconfigsAllBusy: 4, Reports: 5}
	b := Stats{Requests: 10, ToARM: 2, ToFPGA: 3, ReconfigsStarted: 1, ReconfigsSkippedPending: 1, ReconfigsAllBusy: 1, Reports: 1}
	a.Add(b)
	want := Stats{Requests: 11, ToX86: 1, ToARM: 2, ToFPGA: 3, ReconfigsStarted: 3, ReconfigsSkippedPending: 4, ReconfigsAllBusy: 5, Reports: 6}
	if a != want {
		t.Fatalf("sum = %+v, want %+v", a, want)
	}
}
