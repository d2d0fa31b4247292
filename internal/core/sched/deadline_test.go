package sched

import (
	"testing"
	"time"
)

// classCtx is testCtx with an SLO class attached.
func classCtx(kernel, class string) PlacementContext {
	ctx := testCtx(kernel)
	ctx.Class = class
	return ctx
}

func TestDeadlineCriticalUsesLinkAwareScore(t *testing.T) {
	// Node 2 is least loaded but behind a slow hop; the critical class
	// must take the fast near node like LinkAwarePolicy would.
	costs := map[int]time.Duration{1: 100 * time.Millisecond, 2: 2 * time.Second}
	loads := map[int]int{1: 5, 2: 1}
	f := &Fleet{
		ARMNodes:     []int{1, 2},
		Loads:        fleetLoads([]int{1, 2}, loads),
		NodeCores:    func(int) int { return 96 },
		MigrationRow: costRow([]int{1, 2}, func(id int) time.Duration { return costs[id] }),
		LinkQueue:    func(int) int { return 0 },
	}
	node, ok := DeadlinePolicy{}.PickARMNode(classCtx("KNL", "critical"), f)
	if !ok || node != 1 {
		t.Fatalf("critical pick = %d/%v, want near node 1", node, ok)
	}
}

func TestDeadlineBatchPacksMostLoadedNode(t *testing.T) {
	loads := map[int]int{1: 7, 3: 2, 5: 7}
	f := &Fleet{
		ARMNodes: []int{1, 3, 5},
		Loads:    fleetLoads([]int{1, 3, 5}, loads),
	}
	// Batch packs onto the busiest node (ties toward fleet order),
	// keeping node 3 free for the next critical arrival.
	node, ok := DeadlinePolicy{}.PickARMNode(classCtx("KNL", "batch"), f)
	if !ok || node != 1 {
		t.Fatalf("batch pick = %d/%v, want most-loaded 1", node, ok)
	}
	// Critical and classless traffic still spread.
	if node, _ := (DeadlinePolicy{}).PickARMNode(classCtx("KNL", ""), f); node != 3 {
		t.Fatalf("classless pick = %d, want least-loaded 3", node)
	}
}

func TestDeadlineBatchSkipsDownNodes(t *testing.T) {
	loads := map[int]int{1: 9, 2: 1}
	f := &Fleet{
		ARMNodes:      []int{1, 2},
		Loads:         fleetLoads([]int{1, 2}, loads),
		NodeAvailable: func(id int) bool { return id != 1 },
	}
	node, ok := DeadlinePolicy{}.PickARMNode(classCtx("KNL", "batch"), f)
	if !ok || node != 2 {
		t.Fatalf("pick = %d/%v, want surviving node 2", node, ok)
	}
}

func TestDeadlineBatchNeverSpendsReconfig(t *testing.T) {
	f := &Fleet{Devices: []Device{
		&fakeDevice{kernels: map[string]bool{}},
		&fakeDevice{kernels: map[string]bool{}},
	}}
	if got := (DeadlinePolicy{}).ReconfigOrder(classCtx("KNL", "batch"), f, nil); len(got) != 0 {
		t.Fatalf("batch reconfig order = %v, want empty", got)
	}
	for _, class := range []string{"critical", ""} {
		got := DeadlinePolicy{}.ReconfigOrder(classCtx("KNL", class), f, nil)
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("%q reconfig order = %v, want [0 1]", class, got)
		}
	}
}

func TestDeadlineClasslessMatchesDefault(t *testing.T) {
	loads := map[int]int{1: 7, 3: 2, 5: 2}
	f := &Fleet{
		ARMNodes: []int{1, 3, 5},
		Loads:    fleetLoads([]int{1, 3, 5}, loads),
		Devices: []Device{
			&fakeDevice{kernels: map[string]bool{}},
			&fakeDevice{kernels: map[string]bool{"KNL": true}},
		},
	}
	ctx := classCtx("KNL", "")
	wantNode, _ := DefaultPolicy{}.PickARMNode(ctx, f)
	if node, _ := (DeadlinePolicy{}).PickARMNode(ctx, f); node != wantNode {
		t.Fatalf("classless ARM pick = %d, want DefaultPolicy's %d", node, wantNode)
	}
	wantDev, _ := DefaultPolicy{}.PickDevice(ctx, f)
	if dev, _ := (DeadlinePolicy{}).PickDevice(ctx, f); dev != wantDev {
		t.Fatalf("device pick = %d, want DefaultPolicy's %d", dev, wantDev)
	}
	if (DeadlinePolicy{}).Name() != "deadline" {
		t.Fatal("policy name must be \"deadline\"")
	}
}
