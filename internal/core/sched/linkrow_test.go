package sched

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"xartrek/internal/core/threshold"
)

// referenceLinkAwareScore is the per-candidate score the transfer row
// replaced: the migration cost and the link queue are asked for every
// candidate, and the score accumulates in the same order.
func referenceLinkAwareScore(ctx PlacementContext, f *Fleet, migrationCost func(app string, node int) time.Duration, id, load int) float64 {
	var score float64
	if migrationCost != nil {
		transfer := migrationCost(ctx.App, id).Seconds()
		queue := 0
		if f.LinkQueue != nil {
			queue = f.LinkQueue(id)
		}
		score += transfer * float64(1+queue)
	}
	congestion := 1.0
	if f.NodeCores != nil {
		if cores := f.NodeCores(id); cores > 0 {
			if c := float64(load+1) / float64(cores); c > 1 {
				congestion = c
			}
		}
	} else {
		congestion = float64(load + 1)
	}
	return score + ctx.Record.ARMExec.Seconds()*congestion
}

// referenceLinkAwarePick is LinkAwarePolicy.PickARMNode over the
// reference score.
func referenceLinkAwarePick(ctx PlacementContext, f *Fleet, migrationCost func(app string, node int) time.Duration) (int, bool) {
	best, bestScore, found := 0, 0.0, false
	for pos, id := range f.ARMNodes {
		if !f.NodeUp(id) {
			continue
		}
		if s := referenceLinkAwareScore(ctx, f, migrationCost, id, f.Loads.Load(pos)); !found || s < bestScore {
			best, bestScore, found = id, s, true
		}
	}
	return best, found
}

// TestLinkAwareRowMatchesPerCandidateScore drives random fleets through
// the row-based pick and the reference per-candidate pick. Costs and
// loads come from small sets so exact score ties are common; link
// queues are non-zero, loads run past the core count, and availability
// masks drop candidates (sometimes all of them). Every candidate's
// score must agree bit for bit, and so must the (node, ok) pick of
// LinkAwarePolicy and of DeadlinePolicy's critical class.
func TestLinkAwareRowMatchesPerCandidateScore(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	costSet := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond, 2 * time.Second}
	execSet := []time.Duration{0, 500 * time.Millisecond, 642 * time.Millisecond, 1234567 * time.Nanosecond}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(24)
		nodes := rng.Perm(3 * n)[:n]
		maxID := 0
		for _, id := range nodes {
			maxID = max(maxID, id)
		}
		costs := make([]time.Duration, maxID+1)
		queues := make([]int, maxID+1)
		cores := make([]int, maxID+1)
		up := make([]bool, maxID+1)
		loads := make(map[int]int, n)
		maskPct := []int{100, 70, 20, 0}[rng.Intn(4)]
		for _, id := range nodes {
			if rng.Intn(8) == 0 {
				costs[id] = time.Duration(rng.Int63n(int64(3 * time.Second)))
			} else {
				costs[id] = costSet[rng.Intn(len(costSet))]
			}
			queues[id] = rng.Intn(4)
			cores[id] = []int{1, 8, 96}[rng.Intn(3)]
			loads[id] = rng.Intn(4) * rng.Intn(150)
			up[id] = rng.Intn(100) < maskPct
		}
		known := rng.Intn(6) != 0
		cost := func(app string, id int) time.Duration {
			if app != "app" {
				return 0 // no profile: the platform reports zero
			}
			return costs[id]
		}
		row := make([]float64, n)
		for pos, id := range nodes {
			row[pos] = cost("app", id).Seconds()
		}
		f := &Fleet{
			ARMNodes:      nodes,
			Loads:         fleetLoads(nodes, loads),
			NodeCores:     func(id int) int { return cores[id] },
			LinkQueue:     func(id int) int { return queues[id] },
			NodeAvailable: func(id int) bool { return up[id] },
			MigrationRow: func(app string) []float64 {
				if app != "app" {
					return nil
				}
				return row
			},
		}
		refCost := cost
		switch rng.Intn(6) {
		case 0:
			f.MigrationRow, refCost = nil, nil
		case 1:
			f.LinkQueue = nil
		case 2:
			f.NodeCores = nil
		}
		ctx := testCtx("KNL")
		ctx.Record = threshold.Record{App: "app", Kernel: "KNL", ARMExec: execSet[rng.Intn(len(execSet))]}
		if !known {
			ctx.App = "ghost"
		}

		var gotRow []float64
		if f.MigrationRow != nil {
			gotRow = f.MigrationRow(ctx.App)
		}
		for pos, id := range nodes {
			load := f.Loads.Load(pos)
			got := linkAwareScore(f, gotRow, ctx.Record.ARMExec.Seconds(), pos, id, load)
			want := referenceLinkAwareScore(ctx, f, refCost, id, load)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: candidate %d score %v, reference %v", trial, id, got, want)
			}
		}
		wantNode, wantOK := referenceLinkAwarePick(ctx, f, refCost)
		if node, ok := (LinkAwarePolicy{}).PickARMNode(ctx, f); node != wantNode || ok != wantOK {
			t.Fatalf("trial %d: link-aware pick %d/%v, reference %d/%v", trial, node, ok, wantNode, wantOK)
		}
		ctx.Class = "critical"
		if node, ok := (DeadlinePolicy{}).PickARMNode(ctx, f); node != wantNode || ok != wantOK {
			t.Fatalf("trial %d: critical pick %d/%v, reference %d/%v", trial, node, ok, wantNode, wantOK)
		}
	}
}

// TestLinkAwareReadsOneRowPerDecision pins the per-decision surface:
// one MigrationRow call per pick however many candidates there are,
// and none from policies that never score links.
func TestLinkAwareReadsOneRowPerDecision(t *testing.T) {
	nodes := []int{2, 4, 6, 8, 10}
	calls := 0
	row := costRow(nodes, func(id int) time.Duration { return time.Duration(id) * time.Millisecond })
	f := &Fleet{
		ARMNodes:     nodes,
		Loads:        NewLoadIndex(len(nodes)),
		NodeCores:    func(int) int { return 96 },
		MigrationRow: func(app string) []float64 { calls++; return row(app) },
	}
	if node, ok := (LinkAwarePolicy{}).PickARMNode(testCtx("KNL"), f); !ok || node != 2 {
		t.Fatalf("pick = %d/%v, want cheapest node 2", node, ok)
	}
	if calls != 1 {
		t.Fatalf("%d row reads for one decision, want 1", calls)
	}
	for _, p := range []PlacementPolicy{DefaultPolicy{}, NewAffinityPolicy(nil)} {
		p.PickARMNode(testCtx("KNL"), f)
	}
	for _, class := range []string{"batch", ""} {
		DeadlinePolicy{}.PickARMNode(classCtx("KNL", class), f)
	}
	if calls != 1 {
		t.Fatalf("policies that never score links read %d rows", calls-1)
	}
}
