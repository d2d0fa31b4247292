package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xartrek/internal/exper"
	"xartrek/internal/golden"
	"xartrek/internal/isa"
	"xartrek/internal/workloads"
)

// goldenDir holds one file per golden output, named as goldenOutputs
// keys it.
var goldenDir = filepath.Join("testdata", "golden")

// goldenSkips are the campaign files too slow for go test (seconds
// each); the CI memory job runs them under heap budgets and pins their
// reports (internal/exper/memsmoke_test.go).
var goldenSkips = map[string]bool{"rack256.json": true, "rack1024.json": true}

// servingClass reports whether a cell kind runs the open-loop serving
// engine, the kinds that take options.latency_mode and options.shards.
func servingClass(kind string) bool {
	return kind == exper.KindServing || kind == exper.KindPolicyComparison || kind == exper.KindKnee
}

// withOptions gives the cell its own copy of its options and returns
// it, so an edit never reaches a pointer another cell shares.
func withOptions(c *exper.CellSpec) *exper.Options {
	var o exper.Options
	if c.Options != nil {
		o = *c.Options
	}
	c.Options = &o
	return &o
}

// campaignVariants are the spec edits each campaign's reports are
// pinned under, by golden file name suffix. An edit reports whether
// it changed the cell; a variant that changes no cell of a file adds
// no golden for it.
var campaignVariants = []struct {
	suffix string
	edit   func(t *testing.T, c *exper.CellSpec) bool
}{
	{".json", func(*testing.T, *exper.CellSpec) bool { return true }},
	// Every serving-class cell in sketch latency mode.
	{".sketch.json", func(_ *testing.T, c *exper.CellSpec) bool {
		if !servingClass(c.Kind) {
			return false
		}
		withOptions(c).LatencyMode = exper.LatencySketch
		return true
	}},
	// Every shardable serving-class cell (no faults, admission or
	// autoscaler) at min(4, x86 nodes) shards.
	{".shards.json", func(t *testing.T, c *exper.CellSpec) bool {
		if !servingClass(c.Kind) || (c.Faults != nil && !c.Faults.Empty()) || c.Admission.Enabled() || c.Autoscaler.Enabled() {
			return false
		}
		topo := exper.PolicyComparisonTopology()
		if c.Topology != nil || c.Kind != exper.KindPolicyComparison {
			var err error
			if topo, err = c.Topology.Build(); err != nil {
				t.Fatal(err)
			}
		}
		withOptions(c).Shards = min(4, topo.CountOfArch(isa.X86_64))
		return true
	}},
}

// goldenOutputs renders every golden output by its file name: the
// stdout of xarbench -all -runs 3 and the indented report of each
// checked-in campaign spec, as checked in and under each of
// campaignVariants.
func goldenOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	var b strings.Builder
	if err := run([]string{"-all", "-runs", "3"}, &b); err != nil {
		t.Fatalf("xarbench -all -runs 3: %v", err)
	}
	out["all-runs-3.txt"] = []byte(b.String())
	apps, err := workloads.Registry()
	if err != nil {
		t.Fatal(err)
	}
	arts, err := exper.BuildArtifacts(apps)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("..", "..", "examples", "campaigns")
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		if goldenSkips[name] {
			continue
		}
		for _, v := range campaignVariants {
			key := strings.TrimSuffix(name, ".json") + v.suffix
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := exper.ParseCampaign(f)
			f.Close()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			changed := false
			for i := range spec.Cells {
				if v.edit(t, &spec.Cells[i]) {
					changed = true
				}
			}
			if !changed {
				continue
			}
			rep, err := exper.RunCampaign(arts, *spec, exper.RunOpts{BaseDir: dir})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			js, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			out[key] = append(js, '\n')
		}
	}
	return out
}

// TestGoldenOutputs pins every deterministic output the simulator
// produces cheaply: any change to a figure, table or campaign report
// fails here, listing the values that moved. After an intended output
// change, rerun with -update and say in the change which values moved
// and why.
func TestGoldenOutputs(t *testing.T) {
	outputs := goldenOutputs(t)
	for _, name := range slices.Sorted(maps.Keys(outputs)) {
		golden.Check(t, filepath.Join(goldenDir, name), outputs[name])
	}
	files, _ := filepath.Glob(filepath.Join(goldenDir, "*")) // the pattern is well formed
	for _, f := range files {
		if outputs[filepath.Base(f)] == nil {
			t.Errorf("%s: no output renders it any more; delete it", f)
		}
	}
}
