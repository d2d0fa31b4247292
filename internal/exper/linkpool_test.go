package exper

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestPlatformLinksHeldOnlyInFlight steps cells whose migrations cross
// many node pairs event by event and checks the cluster's pooled links
// between events: every link held, but the pinned host-ARM one, has a
// transfer in flight; every server with a transfer in flight is held
// in its own pair's slot, and an idle one is free. In the fault cells,
// where crashes and partitions cancel transfers mid-flight, each pair's
// Queued must also equal its live transfer tokens. The cells are
// faults.json's serving cell, a partition-only cell and policies.json's
// link-aware cells, whose decisions read Queued.
func TestPlatformLinksHeldOnlyInFlight(t *testing.T) {
	arts, split := testArtifacts(t), testSplitArtifacts(t)
	type cell struct {
		name string
		arts *Artifacts
		cfg  ServingConfig
	}
	cells := []cell{{"partitions", arts, partitionSweepConfig()}}
	for _, file := range []string{"faults.json", "policies.json"} {
		f, err := os.Open(filepath.Join(campaignsDir, file))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseCampaign(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		expanded, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range expanded {
			if c.Kind != KindServing && c.Policy != PolicyLinkAware {
				continue
			}
			rc, err := resolveCell(i, c, arts, campaignsDir, map[string][]time.Duration{})
			if err != nil {
				t.Fatal(err)
			}
			use := arts
			if c.SplitImages {
				use = split
			}
			cells = append(cells, cell{fmt.Sprintf("%s/%d", file, i), use, rc.servingConfig()})
		}
	}
	if len(cells) != 4 {
		t.Fatalf("%d cells, want the partition cell, faults.json's and two link-aware ones", len(cells))
	}
	defer func() { debugServingStep = nil }()
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			steps, busiest := 0, 0
			debugServingStep = func(p *Platform) {
				steps++
				checkLinkPool(t, p)
				busiest = max(busiest, len(p.Cluster.LinkServers()))
			}
			res, err := RunServing(c.arts, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d steps, up to %d link servers, %d ARM placements", steps, busiest, res.Sched.ToARM)
			if steps == 0 || busiest < 2 || res.Sched.ToARM == 0 {
				t.Fatalf("%d steps, %d link servers, %d ARM placements: nothing exercised", steps, busiest, res.Sched.ToARM)
			}
			if c.cfg.Faults != nil && res.Faults.RequestsDisrupted == 0 {
				t.Fatal("no request was disrupted: no transfer was cancelled")
			}
		})
	}
}

// checkLinkPool asserts the pooled links' invariants between two
// events (see TestPlatformLinksHeldOnlyInFlight).
func checkLinkPool(t *testing.T, p *Platform) {
	t.Helper()
	c := p.Cluster
	for _, l := range c.LinkServers() {
		a, b := l.Pair()
		switch {
		case a == nil && l.PS.Active() > 0:
			t.Fatalf("t=%v: a free link server carries %d transfers", p.Sim.Now(), l.PS.Active())
		case a == nil:
		case c.Link(a, b) != l:
			t.Fatalf("t=%v: the %s-%s link is not in its pair's slot", p.Sim.Now(), a.Name, b.Name)
		case l.PS.Active() == 0 && l.PS != c.EthLink:
			t.Fatalf("t=%v: the %s-%s link is held with no transfer in flight", p.Sim.Now(), a.Name, b.Name)
		}
	}
	if p.faults == nil {
		return
	}
	// Every in-flight transfer of a fault cell is tracked: the tokens
	// naming a pair are the jobs on its link.
	live := map[linkPair]int{}
	for _, toks := range p.faults.tokens {
		for _, tok := range toks {
			if !tok.dead && tok.other >= 0 && tok.job != nil {
				live[pairOf(tok.reg, tok.other)]++
			}
		}
	}
	n := len(c.Nodes)
	for lo := 0; lo < n; lo++ {
		for hi := lo + 1; hi < n; hi++ {
			if got, want := c.Queued(c.Nodes[lo], c.Nodes[hi]), live[linkPair{lo, hi}]; got != want {
				t.Fatalf("t=%v: %s-%s Queued = %d, %d live transfer tokens", p.Sim.Now(), c.Nodes[lo].Name, c.Nodes[hi].Name, got, want)
			}
		}
	}
}
