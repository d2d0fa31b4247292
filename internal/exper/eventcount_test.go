package exper

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xartrek/internal/golden"
)

// eventCountsGolden pins the event costs TestEventCountsPinned checks.
const eventCountsGolden = "testdata/event_counts.txt"

// servingCell is one serving-class cell of a small checked-in
// campaign, expanded from its spec.
type servingCell struct {
	file  string // campaign file name
	index int    // position in the expanded campaign
	name  string // the campaign's name
	spec  CellSpec
}

// campaign wraps one variant of the cell as a one-cell campaign.
func (c servingCell) campaign(spec CellSpec) CampaignSpec {
	return CampaignSpec{Name: c.name, Cells: []CellSpec{spec}}
}

// String labels the cell as the event-count table does: file, index
// and cell name ("-" when unnamed).
func (c servingCell) String() string {
	label := c.spec.Name
	if label == "" {
		label = "-"
	}
	return fmt.Sprintf("%s %d %s", c.file, c.index, label)
}

// smallServingCells expands every checked-in campaign but rack256 and
// rack1024 (the campaigns cmd/xarbench's TestGoldenOutputs pins) and
// returns its serving-class cells in file and expansion order.
func smallServingCells(t *testing.T) []servingCell {
	t.Helper()
	entries, err := os.ReadDir(campaignsDir)
	if err != nil {
		t.Fatalf("read campaigns dir: %v", err)
	}
	var out []servingCell
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || name == "rack256.json" || name == "rack1024.json" {
			continue
		}
		f, err := os.Open(filepath.Join(campaignsDir, name))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseCampaign(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cells, err := spec.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for ci, cell := range cells {
			if servingClass(cell.Kind) {
				out = append(out, servingCell{file: name, index: ci, name: spec.Name, spec: cell})
			}
		}
	}
	return out
}

// TestEventCountsPinned pins the simulator's deterministic cost
// counters on every serving-class cell of the small checked-in
// campaigns (all but rack256 and rack1024): per cell, the requests
// offered, the events stepped and, of those, the events popped from
// the event heap, each summed over the cell's serving runs (knee
// probes and shards included), the event heap's peak population and
// the link servers the cluster allocated (the most links held at
// once), each the largest of any of those runs. Wall time is too noisy
// to gate on; one extra event per request moves these counts and fails
// here, an event stream that stops keeping its backlog out of the heap
// moves the peak, and a link kept after its last transfer moves the
// link count. Run with -update to rewrite the table after an intended
// engine change.
func TestEventCountsPinned(t *testing.T) {
	arts := testArtifacts(t)
	var (
		mu                   sync.Mutex
		offered, peak, links int
		stepped, popped      uint64
	)
	testServingDone = func(p *Platform, part servingPart, _ *timelineLat) {
		s, h := p.Sim.EventCounts()
		mu.Lock()
		offered += part.res.Offered
		stepped += s
		popped += h
		peak = max(peak, p.Sim.HeapPeak())
		links = max(links, len(p.Cluster.LinkServers()))
		mu.Unlock()
	}
	defer func() { testServingDone = nil }()
	var b strings.Builder
	for _, c := range smallServingCells(t) {
		offered, stepped, popped, peak, links = 0, 0, 0, 0, 0
		if _, err := RunCampaign(arts, c.campaign(c.spec), RunOpts{BaseDir: campaignsDir}); err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		fmt.Fprintf(&b, "%s offered=%d stepped=%d heap=%d peak=%d links=%d\n", c, offered, stepped, popped, peak, links)
	}
	golden.Check(t, eventCountsGolden, []byte(b.String()))
}
