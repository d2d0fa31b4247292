package exper

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// eventCountsGolden pins the event costs TestEventCountsPinned checks.
const eventCountsGolden = "testdata/event_counts.txt"

// TestEventCountsPinned pins the simulator's deterministic cost
// counters on every serving-class cell of the small checked-in
// campaigns (all but rack256 and rack1024): per cell, the requests
// offered, the events stepped and, of those, the events popped from
// the event heap, each summed over the cell's serving runs (knee
// probes and shards included). Wall time is too noisy to gate on; one
// extra event per request moves these counts and fails here. Run with
// -update to rewrite the table after an intended engine change.
func TestEventCountsPinned(t *testing.T) {
	arts := testArtifacts(t)
	var (
		mu              sync.Mutex
		offered         int
		stepped, popped uint64
	)
	testServingDone = func(p *Platform, n int) {
		s, h := p.Sim.EventCounts()
		mu.Lock()
		offered += n
		stepped += s
		popped += h
		mu.Unlock()
	}
	defer func() { testServingDone = nil }()
	entries, err := os.ReadDir(campaignsDir)
	if err != nil {
		t.Fatalf("read campaigns dir: %v", err)
	}
	var b strings.Builder
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
			if !servingClass(cell.Kind) {
				continue
			}
			offered, stepped, popped = 0, 0, 0
			if _, err := RunCampaign(arts, CampaignSpec{Name: spec.Name, Cells: []CellSpec{cell}},
				RunOpts{BaseDir: campaignsDir}); err != nil {
				t.Fatalf("%s cell %d: %v", name, ci, err)
			}
			label := cell.Name
			if label == "" {
				label = "-"
			}
			fmt.Fprintf(&b, "%s %d %s offered=%d stepped=%d heap=%d\n", name, ci, label, offered, stepped, popped)
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(eventCountsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(eventCountsGolden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestEventCountsPinned -update)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
