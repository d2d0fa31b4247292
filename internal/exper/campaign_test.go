package exper

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/faults"
	"xartrek/internal/golden"
	"xartrek/internal/workloads"
)

// testSpec is a spec exercising every serializable knob; the golden
// file pins its JSON form.
func testSpec() CampaignSpec {
	return CampaignSpec{
		Name: "golden",
		Cells: []CellSpec{
			{
				Name:     "grid",
				Kind:     KindServing,
				Topology: &TopologySpec{Kind: "scale-out", Name: "rack8", X86: 4, ARM: 4, FPGAs: 2},
				Rates:    []float64{2, 4},
				Modes:    []string{"xar-trek", "vanilla-x86"},
				Policies: []string{PolicyDefault, PolicyLinkAware},
				Seeds:    []int64{1, 2},
				Duration: Duration(30 * time.Second),
			},
			{
				Name: "xrack",
				Kind: KindPolicyComparison,
				Topology: &TopologySpec{Kind: "cross-rack", Name: "xr", X86: 4, ARMNear: 2, ARMFar: 2, FPGAs: 2,
					Cross: &NetSpec{RTT: Duration(2 * time.Millisecond), BandwidthBps: 12.5e6}},
				Rate:        24,
				Duration:    Duration(time.Minute),
				Seed:        2021,
				SplitImages: true,
			},
			{
				Name:      "replay",
				Kind:      KindServing,
				TraceFile: "traces/requests.log",
				// Rescale to twice the recorded arrival rate.
				TraceRescale: 2,
				Duration:     Duration(time.Minute),
				Options:      &Options{StaticThresholds: true},
			},
			{
				Name:     "bursty",
				Kind:     KindServing,
				Duration: Duration(time.Minute),
				MMPP: []MMPPStateSpec{
					{RatePerSec: 40, MeanSojourn: Duration(2 * time.Second)},
					{RatePerSec: 1, MeanSojourn: Duration(8 * time.Second)},
				},
			},
			{Name: "inline", Kind: KindServing, Duration: Duration(time.Minute),
				Trace: []Duration{0, Duration(time.Second)}},
			{
				Name:     "churn",
				Kind:     KindServing,
				Topology: &TopologySpec{Kind: "scale-out", Name: "rack8", X86: 4, ARM: 4, FPGAs: 2},
				Rate:     8,
				Duration: Duration(30 * time.Second),
				Seed:     2021,
				Faults: &faults.Spec{
					Events: []faults.Event{
						{At: faults.Duration(5 * time.Second), Kind: faults.NodeDown, Node: "arm-01"},
						{At: faults.Duration(10 * time.Second), Kind: faults.NodeUp, Node: "arm-01"},
						{At: faults.Duration(12 * time.Second), Kind: faults.LinkDegrade, A: "x86-00", B: "arm-00", Factor: 2},
					},
					Churn: []faults.Churn{{Kind: "fpga", Targets: []string{"fpga-00"},
						MTBF: faults.Duration(20 * time.Second), MTTR: faults.Duration(2 * time.Second)}},
					MaxRetries:   2,
					RetryBackoff: faults.Duration(5 * time.Millisecond),
				},
			},
			{Name: "named-set", Kind: KindSet, Apps: []string{"CG-A", "Digit2000"}, TotalLoad: 60},
			{Name: "random-set", Kind: KindSet, SetSize: 5, Seed: 7, TotalLoad: 120},
			{Name: "tput", Kind: KindThroughput, App: "FaceDet320", Load: 25,
				Duration: Duration(time.Minute), MaxImages: 1000},
			{Name: "waves", Kind: KindWaves, Waves: 30, PerWave: 20,
				Interval: Duration(30 * time.Second), Seed: 2021},
		},
	}
}

func TestCampaignSpecJSONRoundTrip(t *testing.T) {
	spec := testSpec()
	js, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCampaign(strings.NewReader(string(js)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*parsed, spec) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", *parsed, spec)
	}
}

func TestCampaignSpecGolden(t *testing.T) {
	js := goldenJSON(t, testSpec())
	golden.Check(t, filepath.Join("testdata", "campaign_spec.golden.json"), js)
	// The golden's bytes must parse back to the same spec.
	parsed, err := ParseCampaign(bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if spec := testSpec(); !reflect.DeepEqual(*parsed, spec) {
		t.Fatal("golden file parses to a different spec")
	}
}

func TestParseCampaignRejectsUnknownFields(t *testing.T) {
	_, err := ParseCampaign(strings.NewReader(
		`{"name":"x","cells":[{"kind":"serving","duration":"10s","rate":1,"ratez":[1]}]}`))
	if err == nil || !strings.Contains(err.Error(), "ratez") {
		t.Fatalf("err = %v, want unknown field ratez", err)
	}
}

func TestParseCampaignAcceptsNumericSecondsDuration(t *testing.T) {
	spec, err := ParseCampaign(strings.NewReader(
		`{"name":"x","cells":[{"kind":"serving","duration":1.5,"rate":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(spec.Cells[0].Duration); got != 1500*time.Millisecond {
		t.Fatalf("duration = %v, want 1.5s", got)
	}
}

// TestParseCampaignRejectsRateAboveTick pins the stream bound at spec
// validation: a rate, a rates entry, a knee's rate_hi, or a workload
// cohort's peak (rate × rate_fraction × largest window factor) above
// simtime.MaxRate would draw gaps that truncate to zero and never
// reach the horizon, so the spec is refused before anything runs.
func TestParseCampaignRejectsRateAboveTick(t *testing.T) {
	const workload = `"workload": {"cohorts": [{"id": "burst", "rate_fraction": 1, "class": "batch",
		"arrival": {"schedule": [{"duration": "1s", "factor": 1}, {"duration": "1s", "factor": 1e12}]}}]}`
	cases := map[string]string{
		"rate":      `{"kind": "serving", "rate": 1e12, "duration": "1s"}`,
		"rates":     `{"kind": "serving", "rates": [8, 1e12], "duration": "1s"}`,
		"knee":      `{"kind": "knee", "duration": "1s", "knee": {"rate_lo": 1, "rate_hi": 1e12, "slo": {"p99": "1s"}}}`,
		"workload":  `{"kind": "serving", "rate": 100, "duration": "1s", ` + workload + `}`,
		"knee+load": `{"kind": "knee", "duration": "1s", "knee": {"rate_lo": 1, "rate_hi": 100, "slo": {"p99": "1s"}}, ` + workload + `}`,
	}
	for name, cell := range cases {
		_, err := ParseCampaign(strings.NewReader(`{"name": "fast", "cells": [` + cell + `]}`))
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: err = %v, want a stream-bound rejection", name, err)
		}
	}
}

func TestCampaignValidation(t *testing.T) {
	cases := []struct {
		cell CellSpec
		want string
	}{
		{CellSpec{}, "no kind"},
		{CellSpec{Kind: "bogus"}, "unknown cell kind"},
		{CellSpec{Kind: KindServing, Rate: 1}, "positive duration"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second)}, "needs rate"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1, Rates: []float64{2}}, "mutually exclusive"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Mode: "x", Modes: []string{"y"}}, "mutually exclusive"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1, Policy: "x", Policies: []string{"y"}}, "mutually exclusive"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1, Seed: 1, Seeds: []int64{2}}, "mutually exclusive"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), TraceFile: "x", MMPP: []MMPPStateSpec{{RatePerSec: 1, MeanSojourn: 1}}}, "mutually exclusive"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), TraceFile: "x", Rates: []float64{1, 2}}, "mutually exclusive"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1, TraceRescale: 2}, "trace_rescale applies only to trace_file"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rates: []float64{8, 0}}, "non-positive rate"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1, Policy: "bogus"}, "unknown placement policy"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1, Policies: []string{PolicyDefault, "nope"}}, "unknown placement policy"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1, Modes: []string{"xar-trek", "vanila-x86"}}, "unknown mode"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1, Topology: &TopologySpec{Kind: "scale-out"}}, "needs a name"},
		// Negative node counts name their field instead of building a
		// fleet without that tier.
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "scale-out", Name: "r", X86: 2, ARM: -5, FPGAs: -1}}, "topology arm -5 is negative"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "scale-out", Name: "r", X86: -1, ARM: 2}}, "topology x86 -1 is negative"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "scale-out", Name: "r", X86: 2, ARM: 2, FPGAs: -1}}, "topology fpgas -1 is negative"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "cross-rack", Name: "r", X86: 2, ARMNear: -2, ARMFar: 2}}, "topology arm_near -2 is negative"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "cross-rack", Name: "r", X86: 2, ARMNear: 2, ARMFar: -3}}, "topology arm_far -3 is negative"},
		// A fleet past cluster.MaxNodes fails validation instead of
		// exhausting memory on its link table at run time.
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "scale-out", Name: "huge", X86: 200000, ARM: 1}}, "topology x86 200000 exceeds 4096"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "cross-rack", Name: "r", X86: 2048, ARMFar: 2049}}, "topology has 4097 nodes, more than 4096"},
		// A cross-rack link no transfer can cross names its pair; it
		// used to run as a free link.
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "cross-rack", Name: "r", X86: 1, ARMFar: 2,
				Cross: &NetSpec{RTT: Duration(time.Millisecond)}}}, "link x86-00-armb-00 has bandwidth 0 B/s"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "cross-rack", Name: "r", X86: 1, ARMFar: 2,
				Cross: &NetSpec{RTT: Duration(time.Millisecond), BandwidthBps: -5}}}, "link x86-00-armb-00 has bandwidth -5 B/s"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Topology: &TopologySpec{Kind: "cross-rack", Name: "r", X86: 1, ARMFar: 2,
				Cross: &NetSpec{RTT: Duration(-time.Millisecond), BandwidthBps: 1e4}}}, "link x86-00-armb-00 has negative RTT"},
		{CellSpec{Kind: KindSet}, "apps or set_size"},
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"}, SetSize: 3}, "mutually exclusive"},
		{CellSpec{Kind: KindThroughput, Duration: Duration(time.Second)}, "needs an app"},
		{CellSpec{Kind: KindThroughput, App: "FaceDet320"}, "positive duration"},
		{CellSpec{Kind: KindWaves, Waves: 3}, "positive waves and per_wave"},
		{CellSpec{Kind: KindWaves, Waves: 3, PerWave: 4}, "positive interval"},
		// Process counts past maxProcesses name their field instead of
		// panicking (or exhausting memory) in the engine; the waves
		// product is checked without overflowing.
		{CellSpec{Kind: KindSet, SetSize: 1000000000000000}, "set_size 1000000000000000 exceeds 65536"},
		{CellSpec{Kind: KindSet, SetSize: 3, TotalLoad: 1 << 17}, "total_load 131072 exceeds 65536"},
		{CellSpec{Kind: KindThroughput, App: "FaceDet320", Duration: Duration(time.Second), Load: 1 << 20}, "load 1048576 exceeds 65536"},
		{CellSpec{Kind: KindWaves, Waves: 257, PerWave: 256, Interval: Duration(time.Second)}, "waves 257 × per_wave 256 exceeds 65536 processes"},
		{CellSpec{Kind: KindWaves, Waves: 1 << 40, PerWave: 1 << 40, Interval: Duration(time.Second)}, "exceeds 65536 processes"},
		// Negative counts name their field instead of running as data:
		// a report of load=-5, a total_load that silently becomes the
		// set size, a max_images read as no cap, a set_size beside
		// apps.
		{CellSpec{Kind: KindThroughput, App: "FaceDet320", Duration: Duration(time.Second), Load: -5}, "load -5 is negative"},
		{CellSpec{Kind: KindThroughput, App: "FaceDet320", Duration: Duration(time.Second), MaxImages: -1}, "max_images -1 is negative"},
		{CellSpec{Kind: KindSet, SetSize: 3, TotalLoad: -7}, "total_load -7 is negative"},
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"}, TotalLoad: -7}, "total_load -7 is negative"},
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"}, SetSize: -2}, "set_size -2 is negative"},
		// Fields inapplicable to the kind are rejected, not silently
		// ignored (a rates axis on a set cell is not a load sweep).
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"}, Rates: []float64{1, 2}}, "does not take rate"},
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"}, TraceFile: "x"}, "does not take a trace"},
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"}, Topology: &TopologySpec{}}, "does not take a topology"},
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"}, Duration: Duration(time.Second)}, "does not take a duration"},
		{CellSpec{Kind: KindServing, Rate: 1, Duration: Duration(time.Second), SetSize: 3}, "does not take apps"},
		{CellSpec{Kind: KindWaves, Waves: 3, PerWave: 4, Interval: Duration(time.Second), App: "FaceDet320"}, "does not take app"},
		{CellSpec{Kind: KindThroughput, App: "FaceDet320", Duration: Duration(time.Second), Waves: 2}, "does not take waves"},
		{CellSpec{Kind: KindThroughput, App: "FaceDet320", Duration: Duration(time.Second), Seeds: []int64{1, 2}}, "does not take seed"},
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"}, Seed: 7}, "does not take seed"},
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"}, SplitImages: true}, "does not take split_images"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Trace: []Duration{Duration(-time.Second)}}, "negative trace offset"},
		// Fault specs validate structurally at spec time, and only
		// serving-class cells take them.
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Faults: &faults.Spec{Events: []faults.Event{{Kind: "bogus"}}}}, "unknown kind"},
		{CellSpec{Kind: KindServing, Duration: Duration(time.Second), Rate: 1,
			Faults: &faults.Spec{Events: []faults.Event{{Kind: faults.NodeDown}}}}, "needs a node"},
		{CellSpec{Kind: KindSet, Apps: []string{"CG-A"},
			Faults: &faults.Spec{}}, "does not take faults"},
	}
	for i, tc := range cases {
		err := CampaignSpec{Name: "v", Cells: []CellSpec{tc.cell}}.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
	if err := (CampaignSpec{Name: "empty"}).Validate(); err == nil {
		t.Error("empty campaign accepted")
	}
	// Grid axes multiply: 300 rates by 300 seeds is past the cell bound
	// and fails validation instead of expanding.
	grid := CellSpec{Kind: KindServing, Duration: Duration(time.Second)}
	for i := 1; i <= 300; i++ {
		grid.Rates = append(grid.Rates, float64(i))
		grid.Seeds = append(grid.Seeds, int64(i))
	}
	if err := (CampaignSpec{Name: "grid", Cells: []CellSpec{grid}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "expands to more than 65536 cells") {
		t.Errorf("90000-cell grid: err = %v", err)
	}
	// Anything but whitespace after the spec fails the parse; the
	// decoder used to stop after the first value.
	const spec = `{"name":"v","cells":[{"kind":"serving","rate":1,"duration":"10s"}]}`
	if _, err := ParseCampaign(strings.NewReader(spec + " \n\t")); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
	for _, tail := range []string{` {"junk": 1}`, ` garbage`, spec} {
		_, err := ParseCampaign(strings.NewReader(spec + tail))
		if want := fmt.Sprintf("data after the spec, which ends at offset %d", len(spec)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("spec + %q: err = %v, want containing %q", tail, err, want)
		}
	}
}

func TestExpandGridCountAndOrder(t *testing.T) {
	spec := CampaignSpec{Name: "g", Cells: []CellSpec{{
		Kind:     KindServing,
		Duration: Duration(time.Second),
		Rates:    []float64{1, 2},
		Modes:    []string{"xar-trek", "vanilla-x86"},
		Policies: []string{PolicyDefault, PolicyLinkAware},
		Seeds:    []int64{10, 20},
	}}}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 16 {
		t.Fatalf("cells = %d, want 2*2*2*2 = 16", len(cells))
	}
	// Axes nest rates > modes > policies > seeds, outer to inner.
	type key struct {
		rate   float64
		mode   string
		policy string
		seed   int64
	}
	want := []key{
		{1, "xar-trek", PolicyDefault, 10},
		{1, "xar-trek", PolicyDefault, 20},
		{1, "xar-trek", PolicyLinkAware, 10},
		{1, "xar-trek", PolicyLinkAware, 20},
		{1, "vanilla-x86", PolicyDefault, 10},
	}
	for i, w := range want {
		c := cells[i]
		got := key{c.Rate, c.Mode, c.Policy, c.Seed}
		if got != w {
			t.Fatalf("cell %d = %+v, want %+v", i, got, w)
		}
		if c.Rates != nil || c.Modes != nil || c.Policies != nil || c.Seeds != nil {
			t.Fatalf("cell %d kept grid axes: %+v", i, c)
		}
	}
	if last := cells[15]; last.Rate != 2 || last.Mode != "vanilla-x86" ||
		last.Policy != PolicyLinkAware || last.Seed != 20 {
		t.Fatalf("last cell = %+v", last)
	}
	// Expansion is deterministic: same spec, same cells.
	again, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Fatal("expansion not deterministic")
	}
}

func TestExpandPolicyComparisonDefaults(t *testing.T) {
	spec := CampaignSpec{Name: "p", Cells: []CellSpec{{
		Kind: KindPolicyComparison, Rate: 24, Duration: Duration(time.Second),
	}}}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(Policies()) {
		t.Fatalf("cells = %d, want one per built-in policy (%d)", len(cells), len(Policies()))
	}
	for i, pol := range Policies() {
		if cells[i].Policy != pol {
			t.Fatalf("cell %d policy = %q, want %q", i, cells[i].Policy, pol)
		}
	}
}

func TestParseModeRoundTripsEveryMode(t *testing.T) {
	for _, mode := range []Mode{ModeXarTrek, ModeVanillaX86, ModeVanillaFPGA, ModeVanillaARM} {
		got, err := ParseMode(mode.String())
		if err != nil || got != mode {
			t.Fatalf("ParseMode(%q) = %v, %v", mode.String(), got, err)
		}
	}
	if m, err := ParseMode(""); err != nil || m != ModeXarTrek {
		t.Fatalf("ParseMode(\"\") = %v, %v, want ModeXarTrek", m, err)
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

// RunCampaign turns each spec cell into one call of its kind's engine
// (RunServing, RunSetOpts, RunThroughputOpts, RunWavesOpts); these
// tests pin that a spec-declared cell, its names resolved from
// JSON-able data, reproduces the direct engine call byte-identically.

func TestSpecServingCellMatchesRunServing(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "eq", Cells: []CellSpec{{
		Kind:     KindServing,
		Topology: &TopologySpec{Kind: "scale-out", Name: "rack8", X86: 4, ARM: 4, FPGAs: 2},
		Mode:     "vanilla-x86",
		Rate:     6,
		Duration: Duration(30 * time.Second),
		Seed:     2021,
	}}}
	rep, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunServing(arts, ServingConfig{
		Topo: cluster.ScaleOutTopology("rack8", 4, 4, 2), Mode: ModeVanillaX86,
		RatePerSec: 6, Duration: 30 * time.Second, Seed: 2021,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep.Cells[0].Serving, direct) {
		t.Fatalf("spec cell diverged from RunServing:\n%+v\n%+v", *rep.Cells[0].Serving, direct)
	}
}

func TestSpecGridMatchesRunServing(t *testing.T) {
	arts := testArtifacts(t)
	rates := []float64{1, 2}
	modes := []Mode{ModeXarTrek, ModeVanillaX86}
	spec := CampaignSpec{Name: "grid-eq", Cells: []CellSpec{{
		Kind:     KindServing,
		Rates:    rates,
		Modes:    []string{"xar-trek", "vanilla-x86"},
		Duration: Duration(20 * time.Second),
		Seed:     2021,
	}}}
	rep, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// The configs iterate the same axes in expansion order: rates
	// outer, modes inner.
	var cfgs []ServingConfig
	for _, rate := range rates {
		for _, mode := range modes {
			cfgs = append(cfgs, ServingConfig{
				Topo: cluster.PaperTopology(), Mode: mode, RatePerSec: rate,
				Duration: 20 * time.Second, Seed: 2021,
			})
		}
	}
	sweep := runServingAll(t, arts, cfgs)
	if len(rep.Cells) != len(sweep) {
		t.Fatalf("cells = %d, sweep = %d", len(rep.Cells), len(sweep))
	}
	for i := range sweep {
		if !reflect.DeepEqual(*rep.Cells[i].Serving, sweep[i]) {
			t.Fatalf("cell %d diverged from sweep:\n%+v\n%+v", i, *rep.Cells[i].Serving, sweep[i])
		}
	}
}

func TestSpecSetCellMatchesRunSet(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "set-eq", Cells: []CellSpec{
		{Kind: KindSet, Apps: []string{"CG-A", "Digit2000", "CG-A"}, Mode: "xar-trek", TotalLoad: 60},
		{Kind: KindSet, SetSize: 5, Seed: 1, Mode: "xar-trek", TotalLoad: 60},
	}}
	rep, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cga, err := findApp(arts.Apps, "CG-A")
	if err != nil {
		t.Fatal(err)
	}
	d2000, err := findApp(arts.Apps, "Digit2000")
	if err != nil {
		t.Fatal(err)
	}
	named, err := RunSet(arts, []*workloads.App{cga, d2000, cga}, ModeXarTrek, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep.Cells[0].Set, named) {
		t.Fatalf("named set cell diverged:\n%+v\n%+v", *rep.Cells[0].Set, named)
	}
	random, err := RunSet(arts, RandomSet(newTestRNG(1), arts.Apps, 5), ModeXarTrek, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep.Cells[1].Set, random) {
		t.Fatalf("random set cell diverged:\n%+v\n%+v", *rep.Cells[1].Set, random)
	}
}

func TestSpecThroughputAndWavesCellsMatchAdapters(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "tw-eq", Cells: []CellSpec{
		{Kind: KindThroughput, App: "FaceDet320", Mode: "xar-trek", Load: 25,
			Duration: Duration(30 * time.Second), MaxImages: 100},
		{Kind: KindWaves, Mode: "vanilla-x86", Waves: 4, PerWave: 5,
			Interval: Duration(15 * time.Second), Seed: 2021},
		// No max_images: uncapped, as RunThroughput's maxImages 0 is.
		{Kind: KindThroughput, App: "FaceDet320", Mode: "xar-trek",
			Duration: Duration(30 * time.Second)},
	}}
	rep, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := findApp(arts.Apps, "FaceDet320")
	if err != nil {
		t.Fatal(err)
	}
	tput, err := RunThroughput(arts, fd, ModeXarTrek, 25, 30*time.Second, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep.Cells[0].Throughput, tput) {
		t.Fatalf("throughput cell diverged:\n%+v\n%+v", *rep.Cells[0].Throughput, tput)
	}
	waves, err := RunWaves(arts, ModeVanillaX86, 4, 5, 15*time.Second, 2021)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep.Cells[1].Waves, waves) {
		t.Fatalf("waves cell diverged:\n%+v\n%+v", *rep.Cells[1].Waves, waves)
	}
	uncapped, err := RunThroughput(arts, fd, ModeXarTrek, 0, 30*time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uncapped.Images == 0 || !reflect.DeepEqual(*rep.Cells[2].Throughput, uncapped) {
		t.Fatalf("uncapped throughput cell diverged:\n%+v\n%+v", *rep.Cells[2].Throughput, uncapped)
	}
}

func TestSpecMMPPCellMatchesMMPPTrace(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "mmpp-eq", Cells: []CellSpec{{
		Name: "bursty", Kind: KindServing, Mode: "vanilla-x86",
		Duration: Duration(30 * time.Second), Seed: 7,
		MMPP: []MMPPStateSpec{
			{RatePerSec: 20, MeanSojourn: Duration(2 * time.Second)},
			{RatePerSec: 1, MeanSojourn: Duration(8 * time.Second)},
		},
	}}}
	rep, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := MMPPTrace(7, 30*time.Second, []MMPPState{
		{RatePerSec: 20, MeanSojourn: 2 * time.Second},
		{RatePerSec: 1, MeanSojourn: 8 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunServing(arts, ServingConfig{
		Name: "bursty", Topo: cluster.PaperTopology(), Mode: ModeVanillaX86,
		Duration: 30 * time.Second, Seed: 7, Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*rep.Cells[0].Serving, direct) {
		t.Fatalf("mmpp cell diverged:\n%+v\n%+v", *rep.Cells[0].Serving, direct)
	}
}

func TestSpecTraceFileCellMatchesLoadTrace(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "trace-eq", Cells: []CellSpec{{
		Name: "replay", Kind: KindServing, Mode: "vanilla-x86",
		Duration: Duration(time.Minute), Seed: 3,
		TraceFile: "requests.log", TraceRescale: 2,
	}}}
	rep, err := RunCampaign(arts, spec, RunOpts{BaseDir: "testdata"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("testdata", "requests.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace, err := LoadTrace(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := RunServing(arts, ServingConfig{
		Name: "replay", Topo: cluster.PaperTopology(), Mode: ModeVanillaX86,
		Duration: time.Minute, Seed: 3, Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := *rep.Cells[0].Serving
	if got.Offered == 0 || got.Completed == 0 {
		t.Fatalf("trace cell served nothing: %+v", got)
	}
	if !reflect.DeepEqual(got, direct) {
		t.Fatalf("trace-file cell diverged:\n%+v\n%+v", got, direct)
	}
}

func TestSpecPolicyComparisonMatchesAdapter(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "pol-eq", Cells: []CellSpec{{
		Kind: KindPolicyComparison, Rate: 24, Duration: Duration(20 * time.Second),
		Seed: 2021, SplitImages: true,
	}}}
	rep, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	splitArts, err := BuildArtifactsSplitImages(arts.Apps)
	if err != nil {
		t.Fatal(err)
	}
	direct := runServingAll(t, splitArts, perPolicy(ServingConfig{
		Topo: PolicyComparisonTopology(), Mode: ModeXarTrek,
		RatePerSec: 24, Duration: 20 * time.Second, Seed: 2021,
	}))
	if len(rep.Cells) != len(direct) {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), len(direct))
	}
	for i := range direct {
		if !reflect.DeepEqual(*rep.Cells[i].Serving, direct[i]) {
			t.Fatalf("policy cell %d diverged:\n%+v\n%+v", i, *rep.Cells[i].Serving, direct[i])
		}
	}
}

func TestRunCampaignStreamsCellsInOrder(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "stream", Cells: []CellSpec{{
		Kind:     KindServing,
		Mode:     "vanilla-x86",
		Rates:    []float64{1, 2, 3},
		Seeds:    []int64{1, 2},
		Duration: Duration(10 * time.Second),
	}}}
	var streamed []CellResult
	var rep *Report
	withGOMAXPROCS(8, func() {
		var err error
		rep, err = RunCampaign(arts, spec, RunOpts{
			OnCell: func(c CellResult) { streamed = append(streamed, c) },
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(streamed) != len(rep.Cells) {
		t.Fatalf("streamed %d cells, report has %d", len(streamed), len(rep.Cells))
	}
	for i, c := range streamed {
		if c.Index != i {
			t.Fatalf("streamed cell %d has index %d — delivery out of order", i, c.Index)
		}
		if !reflect.DeepEqual(c, rep.Cells[i]) {
			t.Fatalf("streamed cell %d differs from report", i)
		}
	}
}

func TestRunCampaignDeterministicAcrossGOMAXPROCS(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "det", Cells: []CellSpec{{
		Kind:     KindServing,
		Modes:    []string{"xar-trek", "vanilla-x86"},
		Rates:    []float64{2, 4},
		Duration: Duration(15 * time.Second),
		Seed:     2021,
	}}}
	var par1, par8 *Report
	withGOMAXPROCS(1, func() {
		var err error
		par1, err = RunCampaign(arts, spec, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	withGOMAXPROCS(8, func() {
		var err error
		par8, err = RunCampaign(arts, spec, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(par1, par8) {
		t.Fatal("campaign differs between GOMAXPROCS=1 and 8")
	}
}

// TestResolvePolicyPrecedence pins the one place a cell's placement
// policy is chosen: resolveCell copies a non-empty cell policy over the
// options' policy, without touching the spec, and an empty result
// selects PolicyDefault at platform construction.
func TestResolvePolicyPrecedence(t *testing.T) {
	arts := testArtifacts(t)
	cases := []struct{ cell, opts, want string }{
		{PolicyAffinity, PolicyLinkAware, PolicyAffinity},
		{"", PolicyLinkAware, PolicyLinkAware},
		{PolicyAffinity, "", PolicyAffinity},
		{"", "", ""},
	}
	for i, tc := range cases {
		opts := &Options{Policy: tc.opts}
		spec := CellSpec{Kind: KindServing, Policy: tc.cell, Rate: 1, Duration: Duration(time.Second), Options: opts}
		c, err := resolveCell(0, spec, arts, "", map[string][]time.Duration{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if c.opts.Policy != tc.want {
			t.Errorf("case %d: cell %q over options %q resolved to %q, want %q", i, tc.cell, tc.opts, c.opts.Policy, tc.want)
		}
		if opts.Policy != tc.opts {
			t.Errorf("case %d: resolving rewrote the spec's options policy to %q", i, opts.Policy)
		}
	}
}

func TestPolicyOverridePrecedenceEndToEnd(t *testing.T) {
	arts := testArtifacts(t)
	base := ServingConfig{
		Topo: cluster.ScaleOutTopology("r", 2, 2, 1), Mode: ModeXarTrek,
		RatePerSec: 2, Duration: 10 * time.Second, Seed: 1,
	}
	// Options.Policy alone selects the fleet policy...
	cfg := base
	cfg.Opts.Policy = PolicyLinkAware
	r, err := RunServing(arts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Policy != PolicyLinkAware {
		t.Fatalf("options-level policy = %q, want %q", r.Policy, PolicyLinkAware)
	}
	// ...and a campaign cell's policy overrides Options.Policy.
	rep, err := RunCampaign(arts, CampaignSpec{Name: "prec", Cells: []CellSpec{{
		Kind:     KindServing,
		Topology: &TopologySpec{Kind: "scale-out", Name: "r", X86: 2, ARM: 2, FPGAs: 1},
		Mode:     "xar-trek", Rate: 2, Duration: Duration(10 * time.Second), Seed: 1,
		Policy:  PolicyLinkAware,
		Options: &Options{Policy: PolicyAffinity},
	}}}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Cells[0].Serving.Policy; got != PolicyLinkAware {
		t.Fatalf("cell-level policy = %q, want %q", got, PolicyLinkAware)
	}
}

func TestReportGolden(t *testing.T) {
	arts := testArtifacts(t)
	rep, err := RunCampaign(arts, CampaignSpec{Name: "report-golden", Cells: []CellSpec{
		{Name: "replay", Kind: KindServing, Mode: "vanilla-x86",
			Duration: Duration(time.Minute), Seed: 5,
			Trace: []Duration{0, Duration(time.Second), Duration(2 * time.Second)}},
		{Name: "pair", Kind: KindSet, Apps: []string{"CG-A", "Digit500"}, Mode: "vanilla-x86"},
	}}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "campaign_report.golden.json"), goldenJSON(t, rep))
}

func TestRunCampaignUnnamedSpecKeepsCellErrorContext(t *testing.T) {
	arts := testArtifacts(t)
	// A failing cell's error carries its cell index even when the
	// campaign has no name.
	_, err := RunCampaign(arts, CampaignSpec{Cells: []CellSpec{{
		Kind: KindServing, Duration: Duration(time.Second),
		Trace: []Duration{Duration(-time.Second)},
	}}}, RunOpts{})
	if err == nil || !strings.Contains(err.Error(), "cell 0") {
		t.Fatalf("err = %v, want cell index context", err)
	}
}

func TestRunCampaignResolutionErrors(t *testing.T) {
	arts := testArtifacts(t)
	cases := []struct {
		spec CampaignSpec
		want string
	}{
		{CampaignSpec{Name: "m", Cells: []CellSpec{{Kind: KindServing, Mode: "bogus",
			Rate: 1, Duration: Duration(time.Second)}}}, "unknown mode"},
		{CampaignSpec{Name: "t", Cells: []CellSpec{{Kind: KindServing, TraceFile: "nope.log",
			Duration: Duration(time.Second)}}}, "trace file"},
		{CampaignSpec{Name: "a", Cells: []CellSpec{{Kind: KindSet, Apps: []string{"NoSuchApp"}}}},
			"not in artifact set"},
		{CampaignSpec{Name: "topo", Cells: []CellSpec{{Kind: KindServing, Rate: 1,
			Duration: Duration(time.Second), Topology: &TopologySpec{Kind: "bogus"}}}}, "unknown topology"},
		{CampaignSpec{Name: "fixed", Cells: []CellSpec{{Kind: KindServing, Rate: 1,
			Duration: Duration(time.Second), Topology: &TopologySpec{Kind: "paper", X86: 16}}}},
			"takes no parameters"},
		{CampaignSpec{Name: "xr", Cells: []CellSpec{{Kind: KindServing, Rate: 1,
			Duration: Duration(time.Second), Topology: &TopologySpec{Kind: "scale-out", Name: "r", X86: 2, ARM: 2, ARMFar: 2}}}},
			"does not take arm_near/arm_far"},
	}
	for i, tc := range cases {
		_, err := RunCampaign(arts, tc.spec, RunOpts{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
	// A comment-only trace file fails resolution with the real cause,
	// not a downstream rate error.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "empty.log"), []byte("# nothing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := RunCampaign(arts, CampaignSpec{Name: "e", Cells: []CellSpec{{
		Kind: KindServing, Duration: Duration(time.Second), TraceFile: "empty.log",
	}}}, RunOpts{BaseDir: dir})
	if err == nil || !strings.Contains(err.Error(), "no arrivals") {
		t.Errorf("empty trace file: err = %v, want containing %q", err, "no arrivals")
	}
}

// FuzzParseCampaign feeds ParseCampaign arbitrary input of up to 2 KiB,
// seeded with every checked-in campaign: a spec may fail to parse, but
// parsing must neither panic nor exhaust memory, and a spec that parses
// expands to at least one cell.
func FuzzParseCampaign(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(campaignsDir, "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("campaign seeds: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2<<10 {
			return
		}
		spec, err := ParseCampaign(bytes.NewReader(data))
		if err != nil {
			return
		}
		cells, err := spec.Expand()
		if err != nil {
			t.Fatalf("parsed spec fails to expand: %v", err)
		}
		if len(cells) == 0 {
			t.Fatal("parsed spec expands to no cells")
		}
	})
}
