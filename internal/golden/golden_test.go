package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps what Check reports.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Error(args ...any) { r.errs = append(r.errs, fmt.Sprint(args...)) }

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// mismatch writes want as the golden file name and returns Check's
// one report of got against it.
func mismatch(t *testing.T, name, want, got string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	var r recorder
	Check(&r, path, []byte(got))
	if len(r.errs) != 1 {
		t.Fatalf("%q against the golden %q: %d reports, want 1: %q", got, want, len(r.errs), r.errs)
	}
	return r.errs[0]
}

// wantLines fails unless report holds every one of lines.
func wantLines(t *testing.T, report string, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if !strings.Contains(report, l) {
			t.Errorf("report lacks %q:\n%s", l, report)
		}
	}
}

func TestCheckPassesEqualBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "same.json")
	if err := os.WriteFile(path, []byte("{\"a\": 1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var r recorder
	if Check(&r, path, []byte("{\"a\": 1}\n")); len(r.errs) != 0 {
		t.Fatal(r.errs)
	}
}

func TestNestedIntegerMoveNamesPath(t *testing.T) {
	report := mismatch(t, "r.json",
		`{"cells": [{"serving": {"P99": 39339000000}}, {"serving": {"P99": 7}}]}`,
		`{"cells": [{"serving": {"P99": 39339000001}}, {"serving": {"P99": 7}}]}`)
	wantLines(t, report,
		"  cells[0].serving.P99: 39339000000 → 39339000001 (+2.54e-09%)\n",
		"\n1 values moved; the largest relative move is +2.54e-09% at cells[0].serving.P99")
	if strings.Contains(report, "cells[1]") {
		t.Errorf("report lists an unchanged value:\n%s", report)
	}
}

func TestAddedRemovedKeysAndShorterArray(t *testing.T) {
	report := mismatch(t, "r.json",
		`{"gone": 1, "xs": [1, 2, {"k": "v"}], "same": true}`,
		`{"new": "x", "xs": [1, 2], "same": true}`)
	wantLines(t, report,
		"  gone: 1 → (absent)\n",
		`  new: (absent) → "x"`+"\n",
		`  xs[2].k: "v" → (absent)`+"\n",
		"\n3 values moved")
	if strings.Contains(report, "same") || strings.Contains(report, "largest") {
		t.Errorf("report lists an unchanged key or a numeric move:\n%s", report)
	}
}

func TestTextMismatchNamesLines(t *testing.T) {
	report := mismatch(t, "counts.txt", "a offered=3\nb offered=4\nc\n", "a offered=3\nb offered=5\nc\n")
	wantLines(t, report,
		`  line 2: "b offered=4" → "b offered=5"`+"\n",
		"\n1 lines differ")
	if strings.Contains(report, "line 1") || strings.Contains(report, "line 3") {
		t.Errorf("report lists an unchanged line:\n%s", report)
	}
}

// TestJSONLayoutFallsBackToLines: a JSON golden whose values all hold
// but whose bytes differ still fails, by line.
func TestJSONLayoutFallsBackToLines(t *testing.T) {
	report := mismatch(t, "r.json", "{\"a\": 1}\n", "{\"a\":1}\n")
	wantLines(t, report, `  line 1: "{\"a\": 1}" → "{\"a\":1}"`, "\n1 lines differ")
}

func TestReportIsCappedWithSummary(t *testing.T) {
	var want, got []string
	for i := range listed + 10 {
		want = append(want, "100")
		got = append(got, fmt.Sprint(101+i))
	}
	report := mismatch(t, "r.json", "["+strings.Join(want, ",")+"]", "["+strings.Join(got, ",")+"]")
	wantLines(t, report,
		fmt.Sprintf("  [%d]: 100 → %d (+%d%%)\n", listed-1, 100+listed, listed),
		fmt.Sprintf("\n%d values moved; the largest relative move is +30%% at [%d]", listed+10, listed+9))
	if strings.Contains(report, fmt.Sprintf("  [%d]:", listed)) {
		t.Errorf("report lists more than %d moves:\n%s", listed, report)
	}
}

func TestMissingGoldenNamesUpdate(t *testing.T) {
	var r recorder
	Check(&r, filepath.Join(t.TempDir(), "none.json"), []byte("{}\n"))
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "-update") {
		t.Fatalf("reports %q, want one naming -update", r.errs)
	}
}
