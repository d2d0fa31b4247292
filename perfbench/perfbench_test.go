package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// tiny is a serving cell small enough to run in a fraction of a second.
var tiny = &workload{name: "tiny", spec: []byte(`{"name":"tiny","cells":[{"name":"tiny","kind":"serving",
 "topology":{"kind":"scale-out","name":"rack12","x86":4,"arm":8,"fpgas":2},
 "mode":"xar-trek","rate":1000,"duration":"60s","seed":7,"options":{"latency_mode":"sketch"}}]}`)}

func tinySetup(t *testing.T) *setup {
	t.Helper()
	s, err := tiny.prepare(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// profiledSamples runs the tiny cell under the CPU profiler until the
// profile holds samples.
func profiledSamples(t *testing.T, s *setup) []sample {
	t.Helper()
	for i := 0; i < 10; i++ {
		c, err := runCell(s, 7, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := decodeProfile(c.profile)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) > 0 {
			return samples
		}
	}
	t.Fatal("no CPU profile samples after 10 cells")
	return nil
}

func TestFoldAssignsEverySampleToALayer(t *testing.T) {
	samples := profiledSamples(t, tinySetup(t))
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	var sum int64
	for _, s := range samples {
		if len(s.stack) == 0 || s.value <= 0 {
			t.Fatalf("malformed sample %+v", s)
		}
		if l := stackLayer(s.stack); !known[l] {
			t.Fatalf("stack %v folded into unknown layer %q", s.stack, l)
		}
		sum += s.value
	}
	byLayer, total := foldProfile(samples)
	var folded int64
	share := 0.0
	for _, l := range layers {
		folded += byLayer[l]
		share += float64(byLayer[l]) / float64(total)
	}
	if len(byLayer) != len(layers) || folded != total || total != sum {
		t.Fatalf("fold lost samples: %d layers, folded %d, total %d, samples %d", len(byLayer), folded, total, sum)
	}
	if math.Abs(share-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", share)
	}
}

func TestPlatformClosureFallsThroughToDecide(t *testing.T) {
	if l, ok := frameLayer("xartrek/internal/exper.NewPlatformTopo.func1"); ok {
		t.Fatalf("NewPlatformTopo closure matched layer %q, want no match", l)
	}
	stack := []string{
		"xartrek/internal/simtime.(*PSServer).Active",
		"xartrek/internal/cluster.(*Node).Load",
		"xartrek/internal/exper.NewPlatformTopo.func1",
		"xartrek/internal/core/sched.DefaultPolicy.PickARMNode",
		"xartrek/internal/core/sched.(*Server).placeARM",
		"xartrek/internal/core/sched.(*Server).DecideClass",
		"xartrek/internal/exper.(*Platform).execXarTrek",
		"xartrek/internal/simtime.(*Simulator).Step",
	}
	if l := stackLayer(stack); l != "decide" {
		t.Fatalf("closure under the ARM pick folded into %q, want decide", l)
	}
	if l := stackLayer([]string{"runtime.futex", "main.main"}); l != "other" {
		t.Fatalf("unmatched stack folded into %q, want other", l)
	}
	if l := stackLayer([]string{"runtime.mallocgc", "xartrek/internal/exper.(*faultRuntime).newRequest"}); l != "gc" {
		t.Fatalf("allocation folded into %q, want gc", l)
	}
}

func TestAlteredResultFailsOutputCheck(t *testing.T) {
	s := tinySetup(t)
	c, err := runCell(s, 7, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkResult(c.res); len(errs) > 0 {
		t.Fatalf("unaltered result fails the check: %v", errs)
	}
	alter := map[string]func(){
		"completed above offered": func() { c.res.Completed = c.res.Offered + 1 },
		"shed above the rest":     func() { c.res.Shed = c.res.Offered },
		"p50 above p95":           func() { c.res.P50 = c.res.P95 + time.Millisecond },
		"p95 above p99":           func() { c.res.P95 = c.res.P99 + time.Millisecond },
	}
	orig := c.res
	for name, f := range alter {
		f()
		if errs := checkResult(c.res); len(errs) == 0 {
			t.Errorf("%s: altered result passes the check", name)
		}
		c.res = orig
	}
	again := *c
	again.digest = "0" + c.digest[1:]
	if err := sameReport(c, &again); err == nil {
		t.Error("two different reports of one seed pass the identity check")
	}
	if err := sameReport(c, c); err != nil {
		t.Errorf("identical reports fail the identity check: %v", err)
	}
}

func TestTinyRunReportsEveryMetric(t *testing.T) {
	for _, traced := range []bool{false, true} {
		spans := filepath.Join(t.TempDir(), "spans.json")
		res, checks, err := measure(tiny, 7, 0, traced, spans, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || len(checks) > 0 || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("traced=%v: correct %v, attempted %d, failed %d, checks %v", traced, res.Correct, res.Attempted, res.Failed, checks)
		}
		want := len(endToEnd)
		if traced {
			want = len(perLayer)
			share := 0.0
			for _, l := range layers {
				share += res.Metrics[l+".cpu_share"].Value
			}
			if math.Abs(share-1) > 1e-9 {
				t.Fatalf("cpu shares sum to %v, want 1", share)
			}
			if _, err := os.Stat(spans); err != nil {
				t.Fatalf("spans not written: %v", err)
			}
		}
		if len(res.Metrics) != want {
			t.Fatalf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), want)
		}
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale; regenerate it with: go run . --manifest > ../BENCHMARK.json")
	}
}

func TestCellSeedsAreDerivedDeterministically(t *testing.T) {
	a, b := cellSeeds(2021), cellSeeds(2021)
	if len(a) != seedsPerRun || a[0] != 2021 {
		t.Fatalf("cellSeeds(2021) = %v", a)
	}
	seen := map[int64]bool{}
	for i := range a {
		if a[i] != b[i] || a[i] <= 0 || seen[a[i]] {
			t.Fatalf("cellSeeds(2021) = %v, then %v", a, b)
		}
		seen[a[i]] = true
	}
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x0a}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
