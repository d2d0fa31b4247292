package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runUsage runs xarbench with args and asserts a usage error (exit
// status 2) mentioning want, raised before anything was printed.
func runUsage(t *testing.T, want string, args ...string) {
	t.Helper()
	var out strings.Builder
	err := run(args, &out)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("%q: err = %v, want containing %q", args, err, want)
	}
	if code := exitCode(err); code != 2 {
		t.Fatalf("%q: exit status %d, want 2 (usage)", args, code)
	}
	if out.Len() != 0 {
		t.Fatalf("%q: printed before failing:\n%s", args, out.String())
	}
}

func TestRunRequiresSelection(t *testing.T) {
	runUsage(t, "pick -all")
}

func TestRunSingleTable(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "== table 2 ==") || !strings.Contains(text, "KNL_HW_FD320") {
		t.Fatalf("table 2 output wrong:\n%s", text)
	}
	if strings.Contains(text, "== table 1 ==") {
		t.Fatal("unrequested table printed")
	}
}

func TestRunSingleFigure(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-figure", "10"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "== figure 10 ==") || !strings.Contains(text, "Xar-Trek(B)") {
		t.Fatalf("figure 10 output wrong:\n%s", text)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	runUsage(t, "no such table", "-table", "9")
	runUsage(t, "no such figure", "-figure", "2")
}

func TestTable3Static(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "3"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "#processes > 102") {
		t.Fatalf("table 3 text wrong:\n%s", out.String())
	}
}

// TestRunsBelowOneIsUsageError pins -runs below one, and every other
// flag value the command cannot run with, as a usage error raised
// before any artifact is built or any table printed.
func TestRunsBelowOneIsUsageError(t *testing.T) {
	for _, runs := range []string{"0", "-3"} {
		runUsage(t, "at least one run", "-figure", "3", "-runs", runs)
	}
	// A count past the engines' bound used to panic the sweep's slice
	// allocation after the artifacts were built.
	for _, runs := range []string{"65537", "1000000000000000"} {
		runUsage(t, "-runs "+runs+": at most 65536 runs", "-figure", "3", "-runs", runs)
	}
	runUsage(t, "-checkpoint requires -campaign", "-table", "3", "-checkpoint", t.TempDir())
	runUsage(t, "invalid value", "-runs", "x", "-all")
	// The serving grid, policy comparison and bursty cell run only as
	// campaign specs (examples/campaigns).
	runUsage(t, "not defined: -serving", "-serving")
	if code := exitCode(errors.New("figure 3: boom")); code != 1 {
		t.Fatalf("runtime error exit status %d, want 1", code)
	}
}

// TestRunCampaignSpecFile exercises -campaign end to end: a grid cell
// (rates × policies), a trace-file cell whose relative path resolves
// against the spec's directory, and a set cell, with one streamed
// output line per expanded cell.
func TestRunCampaignSpecFile(t *testing.T) {
	dir := t.TempDir()
	trace := "# ts,endpoint\n0.0,/detect\n0.5,/detect\n1.0,/classify\n2.5,/detect\n"
	if err := os.WriteFile(filepath.Join(dir, "requests.log"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := `{
	  "name": "test",
	  "cells": [
	    {"name": "grid", "kind": "serving", "rates": [1, 2],
	     "policies": ["default", "link-aware"], "duration": "5s", "seed": 2021},
	    {"name": "replay", "kind": "serving", "mode": "vanilla-x86",
	     "duration": "30s", "seed": 1, "trace_file": "requests.log"},
	    {"name": "pair", "kind": "set", "apps": ["CG-A", "Digit500"], "mode": "vanilla-x86"}
	  ]
	}`
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-campaign", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "== campaign test (6 cells) ==") {
		t.Fatalf("missing campaign header (2*2 grid + replay + set = 6 cells):\n%s", text)
	}
	for _, want := range []string{
		"cell 1/6", "cell 2/6", "cell 3/6", "cell 4/6", "cell 5/6", "cell 6/6",
		"link-aware", "replay", "offered=4", "host_load=", "all_busy=", "pair",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	// Streamed lines arrive in cell order regardless of completion
	// order.
	last := -1
	for i := 1; i <= 6; i++ {
		idx := strings.Index(text, "cell "+string(rune('0'+i))+"/6")
		if idx < 0 || idx < last {
			t.Fatalf("cell %d missing or out of order:\n%s", i, text)
		}
		last = idx
	}
}

func TestRunCampaignRejectsBadSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"name":"x","cells":[{"kind":"bogus"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-campaign", path}, &out); err == nil ||
		!strings.Contains(err.Error(), "unknown cell kind") {
		t.Fatalf("err = %v, want unknown cell kind", err)
	}
}

// TestRunCampaignKneeCell exercises a knee cell end to end through the
// CLI: the streamed line must carry the knee rate, probe count and the
// at-knee p99, and an admission cell's line must carry the overload
// counters.
func TestRunCampaignKneeCell(t *testing.T) {
	dir := t.TempDir()
	spec := `{
	  "name": "knee-smoke",
	  "cells": [
	    {"name": "knee", "kind": "knee", "mode": "vanilla-x86", "duration": "10s",
	     "seed": 2021, "knee": {"rate_lo": 1, "rate_hi": 8, "slo": {"p99": "8s"}}},
	    {"name": "shed", "kind": "serving", "mode": "vanilla-x86", "rate": 8,
	     "duration": "10s", "seed": 2021,
	     "admission": {"queue_cap": 4, "policy": "drop"}}
	  ]
	}`
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-campaign", path}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	text := out.String()
	for _, want := range []string{"knee=", "probes=", "overload=drop", "shed=", "goodput="} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// TestRunCampaignKneeUnbracketed pins the CLI contract for a knee
// window that never violates the SLO: the search fails the cell and
// run returns the error (a non-zero exit), instead of reporting a fake
// knee at the window edge.
func TestRunCampaignKneeUnbracketed(t *testing.T) {
	dir := t.TempDir()
	spec := `{
	  "name": "knee-bad",
	  "cells": [
	    {"name": "knee", "kind": "knee", "mode": "vanilla-x86", "duration": "10s",
	     "seed": 2021, "knee": {"rate_lo": 0.1, "rate_hi": 0.2, "slo": {"p99": "8s"}}}
	  ]
	}`
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-campaign", path}, &out); err == nil ||
		!strings.Contains(err.Error(), "knee") {
		t.Fatalf("err = %v, want knee bracket error", err)
	}
}

// TestRunProfiles runs -table 1 with -cpuprofile and with -memprofile:
// each writes a non-empty profile and leaves stdout byte-identical to
// the run without the flag.
func TestRunProfiles(t *testing.T) {
	var plain strings.Builder
	if err := run([]string{"-table", "1"}, &plain); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		t.Run(flag, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "profile.out")
			var out strings.Builder
			if err := run([]string{"-table", "1", flag, path}, &out); err != nil {
				t.Fatalf("run: %v", err)
			}
			if out.String() != plain.String() {
				t.Fatalf("stdout with %s differs from the run without it:\n%s", flag, out.String())
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Fatalf("%s wrote no profile: %v", flag, err)
			}
		})
	}
}

// TestRunProfileUnwritable checks that a profile path that cannot be
// created fails the run.
func TestRunProfileUnwritable(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "profile.out")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var out strings.Builder
		if err := run([]string{"-table", "3", flag, bad}, &out); err == nil || !strings.Contains(err.Error(), flag) {
			t.Fatalf("%s %s: err = %v, want a %s error", flag, bad, err, flag)
		}
	}
}
