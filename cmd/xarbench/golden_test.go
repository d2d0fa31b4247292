package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xartrek/internal/exper"
	"xartrek/internal/isa"
	"xartrek/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/goldens.sha256")

// manifestPath is the checked-in golden manifest: one "<sha256>  <name>"
// line per golden output, sorted by name.
var manifestPath = filepath.Join("testdata", "goldens.sha256")

// manifestSkips are the campaign files too slow for go test (seconds
// each); the CI memory job runs them under heap budgets and pins their
// report digests (internal/exper/memsmoke_test.go).
var manifestSkips = map[string]bool{"rack256.json": true, "rack1024.json": true}

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

// campaignVariants are the spec edits the manifest pins beside each
// campaign as checked in. An edit reports whether it changed the cell;
// a variant that changes no cell of a file adds no line for it.
var campaignVariants = []struct {
	suffix string
	edit   func(t *testing.T, c *exper.CellSpec) bool
}{
	{"", func(*testing.T, *exper.CellSpec) bool { return true }},
	// Every serving-class cell in sketch latency mode.
	{" (sketch)", func(_ *testing.T, c *exper.CellSpec) bool {
		if !servingClass(c.Kind) {
			return false
		}
		withOptions(c).LatencyMode = exper.LatencySketch
		return true
	}},
	// Every shardable serving-class cell (no faults, admission or
	// autoscaler) at min(4, x86 nodes) shards.
	{" (shards)", func(t *testing.T, c *exper.CellSpec) bool {
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

// goldenOutputs renders every golden the manifest pins: the stdout of
// xarbench -all -runs 3 and the marshalled report of each checked-in
// campaign spec, as checked in and under each of campaignVariants.
func goldenOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	var b strings.Builder
	if err := run([]string{"-all", "-runs", "3"}, &b); err != nil {
		t.Fatalf("xarbench -all -runs 3: %v", err)
	}
	out["xarbench -all -runs 3"] = []byte(b.String())
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
		if manifestSkips[name] {
			continue
		}
		for _, v := range campaignVariants {
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
				t.Fatalf("%s%s: %v", name, v.suffix, err)
			}
			js, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			out["campaign "+name+v.suffix] = js
		}
	}
	return out
}

// readManifest parses the checked-in manifest into name → hex digest.
func readManifest(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", manifestPath, sc.Text())
		}
		m[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenManifest pins every deterministic output the simulator
// produces cheaply: any change to a figure, table or campaign report
// moves a digest here. After an intended output change, rerun with
// -update and say in the change which goldens moved and why.
func TestGoldenManifest(t *testing.T) {
	outputs := goldenOutputs(t)
	got := make(map[string]string, len(outputs))
	names := make([]string, 0, len(outputs))
	for name, b := range outputs {
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
		names = append(names, name)
	}
	slices.Sort(names)
	if *update {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s  %s\n", got[name], name)
		}
		if err := os.WriteFile(manifestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readManifest(t)
	for _, name := range names {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: not in %s (run go test -run TestGoldenManifest -update)", name, manifestPath)
		case w != got[name]:
			t.Errorf("%s: sha256 %s, manifest has %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: in %s but no longer rendered", name, manifestPath)
		}
	}
}
