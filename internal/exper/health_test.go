package exper

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xartrek/internal/faults"
)

// fleetHealth is fleet health as plain sets, by node index, card index
// and node pair.
type fleetHealth struct {
	crashed, drained, cardDown map[int]bool
	cut                        map[linkPair]bool
	slowed                     map[linkPair]float64
}

func newFleetHealth() fleetHealth {
	return fleetHealth{
		crashed: map[int]bool{}, drained: map[int]bool{}, cardDown: map[int]bool{},
		cut: map[linkPair]bool{}, slowed: map[linkPair]float64{},
	}
}

// platformHealth reads the platform's fleet state into plain sets.
func platformHealth(p *Platform) fleetHealth {
	h := newFleetHealth()
	for i, off := range p.off {
		if off&offCrashed != 0 {
			h.crashed[i] = true
		}
		if off&offDrained != 0 {
			h.drained[i] = true
		}
	}
	for i, down := range p.cardDown {
		if down {
			h.cardDown[i] = true
		}
	}
	for pair, cut := range p.cut {
		if cut {
			h.cut[pair] = true
		}
	}
	maps.Copy(h.slowed, p.slowed)
	return h
}

// apply is the reference semantics of one timeline event on plain
// sets.
func (h fleetHealth) apply(t *testing.T, p *Platform, ev faults.Event) {
	t.Helper()
	node := func(name string) int {
		for _, n := range p.Cluster.Nodes {
			if n.Name == name {
				return n.Index
			}
		}
		t.Fatalf("event names unknown node %q", name)
		return -1
	}
	card := func(name string) int {
		for i, f := range p.Cluster.Topo.FPGAs {
			if f.Name == name {
				return i
			}
		}
		t.Fatalf("event names unknown card %q", name)
		return -1
	}
	switch ev.Kind {
	case faults.NodeDown:
		h.crashed[node(ev.Node)] = true
	case faults.NodeUp:
		delete(h.crashed, node(ev.Node))
	case faults.NodeDrain:
		h.drained[node(ev.Node)] = true
	case faults.NodeUndrain:
		delete(h.drained, node(ev.Node))
	case faults.FPGADown:
		h.cardDown[card(ev.FPGA)] = true
	case faults.FPGAUp:
		delete(h.cardDown, card(ev.FPGA))
	case faults.LinkDegrade:
		h.slowed[pairOf(node(ev.A), node(ev.B))] = ev.Factor
	case faults.LinkPartition:
		h.cut[pairOf(node(ev.A), node(ev.B))] = true
	case faults.LinkRestore:
		pair := pairOf(node(ev.A), node(ev.B))
		delete(h.cut, pair)
		delete(h.slowed, pair)
	}
}

func (h fleetHealth) equal(o fleetHealth) bool {
	return maps.Equal(h.crashed, o.crashed) && maps.Equal(h.drained, o.drained) &&
		maps.Equal(h.cardDown, o.cardDown) && maps.Equal(h.cut, o.cut) && maps.Equal(h.slowed, o.slowed)
}

// TestFleetHealthFollowsWriters steps fault and autoscaler cells event
// by event and checks the platform's fleet health against its writers:
// node, card and pair state must equal the first res.Events events of
// the cell's fault timeline applied to plain sets, and the x86 nodes
// not parked must number exactly the autoscaler's fleet size (all of
// them without an autoscaler), with the scheduler host never parked.
func TestFleetHealthFollowsWriters(t *testing.T) {
	arts := testArtifacts(t)
	f, err := os.Open(filepath.Join(campaignsDir, "faults.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseCampaign(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		name string
		cfg  ServingConfig
	}
	cells := []cell{{"partitions", partitionSweepConfig()}, {"burst", burstAutoscalerConfig()}}
	for _, s := range []CampaignSpec{*spec, drainRaceSpec()} {
		expanded, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range expanded {
			if c.Kind != KindServing && c.Kind != KindPolicyComparison {
				continue
			}
			rc, err := resolveCell(i, c, arts, campaignsDir, map[string][]time.Duration{})
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell{fmt.Sprintf("%s/%d", s.Name, i), rc.servingConfig()})
		}
	}
	defer func() { debugServingStep = nil }()
	// seen counts, per kind of health, the steps that found it set,
	// so the cells demonstrably exercise every writer.
	seen := map[string]int{}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			timeline, err := c.cfg.Faults.Timeline(c.cfg.Seed, c.cfg.Duration)
			if err != nil {
				t.Fatal(err)
			}
			ref := newFleetHealth()
			applied, steps := 0, 0
			debugServingStep = func(p *Platform) {
				steps++
				if p.faults != nil {
					for ; applied < p.faults.res.Events; applied++ {
						ref.apply(t, p, timeline[applied])
					}
				}
				got := platformHealth(p)
				if !got.equal(ref) {
					t.Fatalf("t=%v after %d events: platform health %+v, timeline %+v", p.Sim.Now(), applied, got, ref)
				}
				size, want := 0, len(p.x86Nodes)
				for _, n := range p.x86Nodes {
					if p.off[n.Index]&offParked == 0 {
						size++
					}
				}
				if p.elastic != nil && p.elastic.ctrl != nil {
					want = p.elastic.ctrl.Size()
				}
				if size != want {
					t.Fatalf("t=%v: %d x86 nodes not parked, fleet size %d", p.Sim.Now(), size, want)
				}
				if p.off[p.Cluster.X86.Index]&offParked != 0 {
					t.Fatalf("t=%v: the scheduler host is parked", p.Sim.Now())
				}
				for kind, n := range map[string]int{"crashed": len(got.crashed), "drained": len(got.drained),
					"card": len(got.cardDown), "cut": len(got.cut), "slowed": len(got.slowed), "parked": len(p.x86Nodes) - size} {
					if n > 0 {
						seen[kind]++
					}
				}
			}
			if _, err := RunServing(arts, c.cfg); err != nil {
				t.Fatal(err)
			}
			if steps == 0 || applied != len(timeline) {
				t.Fatalf("%d steps applied %d of %d timeline events", steps, applied, len(timeline))
			}
		})
	}
	for _, kind := range []string{"crashed", "drained", "card", "cut", "slowed", "parked"} {
		if seen[kind] == 0 {
			t.Errorf("no step saw %s health: the writer is not exercised", kind)
		}
	}
}
