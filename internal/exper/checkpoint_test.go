package exper

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xartrek/internal/faults"
)

// ckptSpec is a small multi-cell campaign for the checkpoint tests: a
// serving grid (4 expanded cells), a fault-bearing churn cell and a
// 4-shard workload cell (index 5), so resume is exercised across
// fault-free, fault-injected and sharded cells.
func ckptSpec() CampaignSpec {
	return CampaignSpec{
		Name: "ckpt",
		Cells: []CellSpec{
			{
				Name:     "grid",
				Kind:     KindServing,
				Topology: &TopologySpec{Kind: "scale-out", Name: "rack4", X86: 2, ARM: 2, FPGAs: 1},
				Rates:    []float64{2, 4},
				Modes:    []string{"xar-trek", "vanilla-x86"},
				Duration: Duration(10 * time.Second),
				Seed:     2021,
			},
			{
				Name:     "churn",
				Kind:     KindServing,
				Topology: &TopologySpec{Kind: "scale-out", Name: "rack8", X86: 4, ARM: 4, FPGAs: 2},
				Rate:     8,
				Duration: Duration(20 * time.Second),
				Seed:     2021,
				Faults: &faults.Spec{
					Events: []faults.Event{
						{At: faults.Duration(5 * time.Second), Kind: faults.NodeDown, Node: "arm-01"},
						{At: faults.Duration(10 * time.Second), Kind: faults.NodeUp, Node: "arm-01"},
					},
					MaxRetries:   2,
					RetryBackoff: faults.Duration(5 * time.Millisecond),
				},
			},
			{
				Name:     "sharded",
				Kind:     KindServing,
				Topology: &TopologySpec{Kind: "scale-out", Name: "rack8", X86: 4, ARM: 4, FPGAs: 2},
				Rate:     8,
				Duration: Duration(20 * time.Second),
				Seed:     2021,
				Options:  &Options{Shards: 4},
				Workload: testWorkload(),
			},
		},
	}
}

// goldenJSON marshals v as a golden file holds it, indented and ending
// in a newline; the checkpoint tests compare reports in this form too.
func goldenJSON(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(blob, '\n')
}

// TestCampaignCheckpointResumeByteIdentical is the kill/resume golden:
// a checkpointed campaign killed after cell k (simulated by removing
// the suffix of cell files — exactly the on-disk state the atomic
// writes guarantee) resumes from the completed prefix and produces a
// final report byte-identical to an uninterrupted run's, across
// GOMAXPROCS settings, without recomputing the prefix. The sharded cell
// resumes per cell like the others: the shard files earlier versions
// wrote for it are neither read nor rewritten.
func TestCampaignCheckpointResumeByteIdentical(t *testing.T) {
	arts := testArtifacts(t)
	spec := ckptSpec()
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	n := len(cells)
	if n != 6 {
		t.Fatalf("expanded %d cells, want 6", n)
	}

	baseline, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := goldenJSON(t, baseline)

	dir := t.TempDir()
	var first *Report
	withGOMAXPROCS(4, func() {
		first, err = RunCampaign(arts, spec, RunOpts{Checkpoint: dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenJSON(t, first); string(got) != string(want) {
		t.Fatalf("checkpointed run diverged from plain run:\n%s\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := os.Stat(filepath.Join(dir, cellFileName(i))); err != nil {
			t.Fatalf("cell file %d not written: %v", i, err)
		}
	}

	// Kill after cell 2: cells 2..5 never hit the disk. A stray temp
	// file emulates a kill mid-write; resume must ignore it.
	for i := 2; i < n; i++ {
		if err := os.Remove(filepath.Join(dir, cellFileName(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, cellFileName(4)+".tmp"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	kept, err := os.Stat(filepath.Join(dir, cellFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	// Shard files of the sharded cell, in the layout earlier versions
	// wrote, holding bytes no parser accepts: resume must not touch
	// them. A sentinel mtime in the past witnesses that none is
	// rewritten.
	junk := []byte("\x00{not json")
	sentinel := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	var oldShards []string
	for s := 0; s < 4; s++ {
		p := filepath.Join(dir, fmt.Sprintf("cell-0005.shard-%03d.json", s))
		if err := os.WriteFile(p, junk, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, sentinel, sentinel); err != nil {
			t.Fatal(err)
		}
		oldShards = append(oldShards, p)
	}

	var streamed []int
	var resumed *Report
	withGOMAXPROCS(1, func() {
		resumed, err = RunCampaign(arts, spec, RunOpts{
			Checkpoint: dir,
			OnCell:     func(c CellResult) { streamed = append(streamed, c.Index) },
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenJSON(t, resumed); string(got) != string(want) {
		t.Fatalf("resumed run diverged from uninterrupted run:\n%s\n%s", got, want)
	}
	if len(streamed) != n {
		t.Fatalf("streamed %d cells, want %d", len(streamed), n)
	}
	for i, idx := range streamed {
		if idx != i {
			t.Fatalf("streamed order %v, want in-index order", streamed)
		}
	}
	after, err := os.Stat(filepath.Join(dir, cellFileName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(kept.ModTime()) {
		t.Fatal("resume rewrote an already-checkpointed cell (prefix was recomputed)")
	}
	for _, p := range oldShards {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().Equal(sentinel) || string(data) != string(junk) {
			t.Errorf("resume rewrote %s; shard files must be ignored", filepath.Base(p))
		}
	}

	// A hole in the middle (not just a suffix) resumes the same way.
	if err := os.Remove(filepath.Join(dir, cellFileName(1))); err != nil {
		t.Fatal(err)
	}
	resumed, err = RunCampaign(arts, spec, RunOpts{Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenJSON(t, resumed); string(got) != string(want) {
		t.Fatal("resume with a mid-campaign hole diverged")
	}

	// A hollow cell file — the right index and nothing else — is not a
	// result: resume fails naming the file instead of reporting an
	// empty cell.
	if err := os.WriteFile(filepath.Join(dir, cellFileName(0)), []byte(`{"index":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err = RunCampaign(arts, spec, RunOpts{Checkpoint: dir})
	if err == nil || !strings.Contains(err.Error(), cellFileName(0)) {
		var got []byte
		if resumed != nil {
			got = goldenJSON(t, resumed)
		}
		t.Fatalf("hollow cell file: err = %v, want an error naming %s; report:\n%s", err, cellFileName(0), got)
	}
}

// cellFileName mirrors the checkpoint layout for test assertions.
func cellFileName(i int) string {
	ck := checkpoint{dir: ""}
	return filepath.Base(ck.cellPath(i))
}

// TestCampaignCheckpointRefusesForeignDir pins the fingerprint gate: a
// checkpoint directory written by one campaign cannot silently leak
// results into a different one.
func TestCampaignCheckpointRefusesForeignDir(t *testing.T) {
	arts := testArtifacts(t)
	spec := ckptSpec()
	dir := t.TempDir()
	if _, err := RunCampaign(arts, spec, RunOpts{Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	other := ckptSpec()
	other.Cells[0].Rates = []float64{2, 8} // different grid
	_, err := RunCampaign(arts, other, RunOpts{Checkpoint: dir})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign checkpoint dir not refused: %v", err)
	}

	// A foreign cell file inside the right directory: cell 3's result
	// (vanilla-x86 at rate 4) relabelled as cell 0 (xar-trek at rate
	// 2). Resume names the file and the first field that disagrees.
	var foreign CellResult
	raw, err := os.ReadFile(filepath.Join(dir, cellFileName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &foreign); err != nil {
		t.Fatal(err)
	}
	foreign.Index = 0
	raw, err = json.Marshal(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, cellFileName(0)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RunCampaign(arts, spec, RunOpts{Checkpoint: dir})
	if err == nil || !strings.Contains(err.Error(), cellFileName(0)) || !strings.Contains(err.Error(), "mode") {
		var got string
		if rep != nil {
			got = fmt.Sprintf("%s %s %v", rep.Cells[0].Name, rep.Cells[0].Mode, rep.Cells[0].RatePerSec)
		}
		t.Fatalf("foreign cell file: err = %v, want an error naming %s and its mode; cell 0 reported as %s", err, cellFileName(0), got)
	}
}

// TestCheckLoadedNamesFirstMismatch runs cell 0 of ckptSpec and
// checks its result against the resolved cell after each single
// tamper: the untouched result passes, and every tampered one fails
// naming what disagrees.
func TestCheckLoadedNamesFirstMismatch(t *testing.T) {
	arts := testArtifacts(t)
	cells, err := ckptSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	c, err := resolveCell(0, cells[0], arts, "", map[string][]time.Duration{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.run(arts, arts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.checkLoaded(&res); err != nil {
		t.Fatalf("the cell's own result refused: %v", err)
	}
	for _, tc := range []struct {
		want   string
		tamper func(r *CellResult)
	}{
		{"name", func(r *CellResult) { r.Name = "other" }},
		{"kind", func(r *CellResult) { r.Kind = KindKnee }},
		{"topology", func(r *CellResult) { r.Topology = "rack8" }},
		{"mode", func(r *CellResult) { r.Mode = "vanilla-x86" }},
		{"rate", func(r *CellResult) { r.RatePerSec = 4 }},
		{"seed", func(r *CellResult) { r.Seed = 7 }},
		{"latency mode", func(r *CellResult) {
			s := *r.Serving
			s.LatencyMode = LatencySketch
			r.Serving = &s
		}},
		{"metrics", func(r *CellResult) { r.Metrics = nil }},
		{"0 payload(s)", func(r *CellResult) { r.Serving = nil }},
		{"2 payload(s)", func(r *CellResult) { r.Knee = &KneeResult{} }},
		{"1 payload(s)", func(r *CellResult) { r.Serving, r.Set = nil, &SetResult{} }},
	} {
		r := res
		tc.tamper(&r)
		if err := c.checkLoaded(&r); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s tampered: err = %v, want one naming %q", tc.want, err, tc.want)
		}
	}
}

// TestCampaignCheckpointSketchCells pins checkpoint/resume for
// sketch-mode cells, the sharded one included: the sketch-backed
// percentiles survive the CellResult JSON round trip byte-identically
// too.
func TestCampaignCheckpointSketchCells(t *testing.T) {
	arts := testArtifacts(t)
	spec := ckptSpec()
	for i, c := range spec.Cells {
		var opts Options
		if c.Options != nil {
			opts = *c.Options
		}
		opts.LatencyMode = LatencySketch
		spec.Cells[i].Options = &opts
	}
	baseline, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := goldenJSON(t, baseline)
	dir := t.TempDir()
	if _, err := RunCampaign(arts, spec, RunOpts{Checkpoint: dir}); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(baseline.Cells); i++ {
		if err := os.Remove(filepath.Join(dir, cellFileName(i))); err != nil {
			t.Fatal(err)
		}
	}
	resumed, err := RunCampaign(arts, spec, RunOpts{Checkpoint: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenJSON(t, resumed); string(got) != string(want) {
		t.Fatal("resumed sketch-mode run diverged from uninterrupted run")
	}
	for _, c := range []CellResult{resumed.Cells[0], resumed.Cells[len(resumed.Cells)-1]} {
		if c.Serving.LatencyMode != LatencySketch {
			t.Fatalf("cell %d lost its latency mode", c.Index)
		}
	}
}

// FuzzCheckpoint resumes a checkpointed 4-shard workload cell, run once
// per latency mode, over a copy of its checkpoint directory (the
// manifest and the cell file) with one of the two files replaced by
// the input. The input's first byte picks the mode and the file, the
// rest is the file's new content; the other file stays as written.
// Resume may fail, but must not panic. Seeded, per mode and file, with
// the file as written, the other mode's file and the file cut in half;
// inputs over 8 KiB are skipped.
func FuzzCheckpoint(f *testing.F) {
	arts := testArtifacts(f)
	type run struct {
		spec  CampaignSpec
		names []string
		files [][]byte
	}
	var runs []run
	for _, mode := range []string{LatencyExact, LatencySketch} {
		r := run{spec: CampaignSpec{
			Name: "fuzz-ck",
			Cells: []CellSpec{{
				Kind:     KindServing,
				Topology: &TopologySpec{Kind: "scale-out", Name: "rack8", X86: 4, ARM: 4, FPGAs: 2},
				Rate:     8,
				Duration: Duration(10 * time.Second),
				Seed:     7,
				Options:  &Options{Shards: 4, LatencyMode: mode},
				Workload: testWorkload(),
			}},
		}}
		dir := f.TempDir()
		if _, err := RunCampaign(arts, r.spec, RunOpts{Checkpoint: dir}); err != nil {
			f.Fatal(err)
		}
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(paths) != 2 {
			f.Fatalf("checkpoint files: %v (%d, want the manifest and the cell file)", err, len(paths))
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			if len(data) >= 8<<10 {
				f.Fatalf("%s: %d bytes, over the input cap", p, len(data))
			}
			r.names = append(r.names, filepath.Base(p))
			r.files = append(r.files, data)
		}
		runs = append(runs, r)
	}
	for i := range runs[0].names {
		for m, r := range runs {
			own, other := r.files[i], runs[(m+1)%len(runs)].files[i]
			for _, data := range [][]byte{own, other, own[:len(own)/2]} {
				f.Add(append([]byte{byte(i*len(runs) + m)}, data...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 8<<10 {
			return
		}
		r := runs[int(in[0])%len(runs)]
		target := int(in[0]) / len(runs) % len(r.names)
		dir := t.TempDir()
		for i, name := range r.names {
			data := r.files[i]
			if i == target {
				data = in[1:]
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Resume may fail; only a panic fails the target.
		_, _ = RunCampaign(arts, r.spec, RunOpts{Checkpoint: dir})
	})
}
