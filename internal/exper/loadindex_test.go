package exper

import (
	"testing"

	"xartrek/internal/cluster"
	"xartrek/internal/elastic"
	"xartrek/internal/faults"
)

// scanLeastLoadedX86 is the reference linear scan the entry index
// replaces: least nodeLoad among entry-eligible x86 nodes, ties toward
// the lower index, the scheduler host when none is eligible.
func scanLeastLoadedX86(p *Platform) *cluster.Node {
	var best *cluster.Node
	bestLoad := 0
	for _, n := range p.x86Nodes {
		if p.off[n.Index] != 0 {
			continue
		}
		if l := p.nodeLoad(n); best == nil || l < bestLoad {
			best, bestLoad = n, l
		}
	}
	if best == nil {
		return p.Cluster.X86
	}
	return best
}

// scanLeastLoadedARM is the reference scan behind the no-scheduler
// baselines' ARM pick.
func scanLeastLoadedARM(p *Platform) *cluster.Node {
	var best *cluster.Node
	for _, n := range p.armNodes {
		if p.off[n.Index]&(offCrashed|offDrained) != 0 {
			continue
		}
		if best == nil || n.Load() < best.Load() {
			best = n
		}
	}
	return best
}

// checkLoadIndexes asserts, between two events, that both indexes
// mirror the loads they stand for and pick what the reference scans
// pick.
func checkLoadIndexes(t *testing.T, p *Platform) {
	t.Helper()
	for _, n := range p.x86Nodes {
		if got, want := p.entryLoads.Load(p.slot[n.Index]), p.nodeLoad(n); got != want {
			t.Fatalf("t=%v: entry index load of %s = %d, nodeLoad = %d", p.Sim.Now(), n.Name, got, want)
		}
	}
	for _, n := range p.armNodes {
		if got, want := p.armLoads.Load(p.slot[n.Index]), n.Load(); got != want {
			t.Fatalf("t=%v: ARM index load of %s = %d, Load() = %d", p.Sim.Now(), n.Name, got, want)
		}
	}
	if got, want := p.leastLoadedX86(), scanLeastLoadedX86(p); got != want {
		t.Fatalf("t=%v: entry pick %s, reference scan %s", p.Sim.Now(), got.Name, want.Name)
	}
	if got, want := p.leastLoadedARM(), scanLeastLoadedARM(p); got != want {
		t.Fatalf("t=%v: ARM pick %v, reference scan %v", p.Sim.Now(), got, want)
	}
}

// TestLoadIndexesMirrorLoadsOnEveryEvent steps serving cells with node,
// card and link churn, admission control, the autoscaler and the
// FIFO-core ablation through every event, checking the load indexes
// against the loads they mirror between events.
func TestLoadIndexesMirrorLoadsOnEveryEvent(t *testing.T) {
	arts := testArtifacts(t)
	churn := churnConfig()
	cells := []ServingConfig{churn, churn, churn, churn}
	cells[0].RatePerSec = 48
	cells[0].Admission = &elastic.AdmissionSpec{QueueCap: 6, Policy: elastic.Drop}
	cells[1].Admission = &elastic.AdmissionSpec{QueueCap: 4, Policy: elastic.RejectFast}
	cells[1].Opts.X86FIFO = true
	cells[2].RatePerSec = 40
	cells[2].Admission = &elastic.AdmissionSpec{QueueCap: 5, Policy: elastic.DegradeToCPU}
	cells[2].Autoscaler = &elastic.AutoscalerSpec{
		Policy: elastic.ScaleTargetUtilization, Epoch: esec(1),
		HighUtil: 0.5, LowUtil: 0.1, MinNodes: 1, MaxNodes: 4,
	}
	cells[3].Mode = ModeVanillaARM
	cells[3].Faults = &faults.Spec{Churn: []faults.Churn{
		{Kind: "node", Targets: []string{"arm-00", "arm-02"}, MTBF: fsec(4), MTTR: fsec(1)},
	}}

	defer func() { debugServingStep = nil }()
	for i, cfg := range cells {
		events := 0
		debugServingStep = func(p *Platform) {
			events++
			checkLoadIndexes(t, p)
		}
		res, err := RunServing(arts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if events == 0 || res.Completed == 0 {
			t.Fatalf("cell %d: %d events, %d completed — nothing exercised", i, events, res.Completed)
		}
		if cfg.Admission != nil && res.Shed+res.Degraded == 0 {
			t.Fatalf("cell %d: admission never engaged", i)
		}
		if res.Faults == nil || res.Faults.RequestsDisrupted == 0 {
			t.Fatalf("cell %d: churn disrupted nothing", i)
		}
	}
}
