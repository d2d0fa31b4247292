package exper

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xartrek/internal/quantile"
)

// campaignsDir is the checked-in campaign spec library the differential
// test sweeps.
const campaignsDir = "../../examples/campaigns"

// captureExactDists installs the test latency sink for one single-cell
// exact run, returning the captured distributions keyed by kind
// ("latency", "recovery", "class:<app>").
func captureExactDists(t *testing.T) (map[string][]time.Duration, func()) {
	t.Helper()
	var mu sync.Mutex
	dists := make(map[string][]time.Duration)
	testLatencySink = func(cell, kind string, sorted []time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		dists[kind] = append([]time.Duration(nil), sorted...)
	}
	return dists, func() { testLatencySink = nil }
}

// sketchErr returns how far a sketch-reported percentile sits from the
// exact one, relative to the exact value. The histograms' value bound
// keeps it at most quantile.DefaultEpsilon.
func sketchErr(got, exact time.Duration) float64 {
	if exact == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(got-exact)) / float64(exact)
}

// TestSketchMatchesExactOnCampaignCells is the differential exactness
// gate: every serving-class cell of every checked-in campaign spec runs
// twice — once in the exact (default) latency mode, once in sketch mode
// — and every sketch-reported percentile (p50/p95/p99, fault recovery
// percentiles, per-class p99) must lie within quantile.DefaultEpsilon
// of the exact percentile of the same distribution, relative to it.
// Offered/completed counts must agree exactly, pinning that the sketch
// path replays the identical simulation. The worst-offending
// percentile is logged. The rack cells, sketch-native and too large
// for a short test, get the same check in the memory smokes.
func TestSketchMatchesExactOnCampaignCells(t *testing.T) {
	arts := testArtifacts(t)
	entries, err := os.ReadDir(campaignsDir)
	if err != nil {
		t.Fatalf("read campaigns dir: %v", err)
	}
	var worstDesc string
	worstRel := -1.0
	checked := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		f, err := os.Open(filepath.Join(campaignsDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseCampaign(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		cells, err := spec.Expand()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for ci, cell := range cells {
			if cell.Kind != KindServing && cell.Kind != KindPolicyComparison {
				continue
			}
			if cell.Options != nil && cell.Options.LatencyMode == LatencySketch {
				continue // the rack cells: the memory smokes check them
			}
			cellID := fmt.Sprintf("%s cell %d (%s mode=%s rate=%g seed=%d)",
				e.Name(), ci, cell.Name, cell.Mode, cell.Rate, cell.Seed)
			one := func(c CellSpec) CellResult {
				rep, err := RunCampaign(arts, CampaignSpec{Name: spec.Name, Cells: []CellSpec{c}},
					RunOpts{BaseDir: campaignsDir})
				if err != nil {
					t.Fatalf("%s: %v", cellID, err)
				}
				return rep.Cells[0]
			}
			dists, uninstall := captureExactDists(t)
			exact := one(cell)
			uninstall()

			sk := cell
			var opts Options
			if cell.Options != nil {
				opts = *cell.Options
			}
			opts.LatencyMode = LatencySketch
			sk.Options = &opts
			sketched := one(sk)

			er, sr := exact.Serving, sketched.Serving
			if sr.LatencyMode != LatencySketch {
				t.Fatalf("%s: sketch run did not report LatencyMode=%s", cellID, LatencySketch)
			}
			if sr.Offered != er.Offered || sr.Completed != er.Completed {
				t.Fatalf("%s: sketch run diverged: offered %d/%d completed %d/%d",
					cellID, sr.Offered, er.Offered, sr.Completed, er.Completed)
			}
			check := func(metric string, v time.Duration, pct int, dist []time.Duration) {
				checked++
				want := percentile(dist, pct)
				rel := sketchErr(v, want)
				if rel > worstRel {
					worstRel = rel
					worstDesc = fmt.Sprintf("%s %s (p%d of n=%d: %v, exact %v, off by %.4f%%)",
						cellID, metric, pct, len(dist), v, want, 100*rel)
				}
				if rel > quantile.DefaultEpsilon {
					t.Errorf("%s: %s = %v, exact p%d %v: off by %.4f%%, beyond the %v value bound",
						cellID, metric, v, pct, want, 100*rel, quantile.DefaultEpsilon)
				}
			}
			lat := dists["latency"]
			check("P50", sr.P50, 50, lat)
			check("P95", sr.P95, 95, lat)
			check("P99", sr.P99, 99, lat)
			if ef, sf := er.Faults, sr.Faults; ef != nil || sf != nil {
				if (ef == nil) != (sf == nil) {
					t.Fatalf("%s: fault report present in one mode only", cellID)
				}
				rec := dists["recovery"]
				check("RecoveryP50", sf.RecoveryP50, 50, rec)
				check("RecoveryP99", sf.RecoveryP99, 99, rec)
				for app, p99 := range sf.ClassP99 {
					check("ClassP99["+app+"]", p99, 99, dists["class:"+app])
				}
			}
			if et, st := er.Tenancy, sr.Tenancy; et != nil || st != nil {
				if (et == nil) != (st == nil) {
					t.Fatalf("%s: tenancy report present in one mode only", cellID)
				}
				for i, sc := range st.Classes {
					ec := et.Classes[i]
					if sc.Class != ec.Class || sc.Offered != ec.Offered || sc.Completed != ec.Completed {
						t.Fatalf("%s: sketch class %q diverged: offered %d/%d completed %d/%d",
							cellID, sc.Class, sc.Offered, ec.Offered, sc.Completed, ec.Completed)
					}
					dist := dists["slo:"+sc.Class]
					check("Tenancy["+sc.Class+"].P50", sc.P50, 50, dist)
					check("Tenancy["+sc.Class+"].P95", sc.P95, 95, dist)
					check("Tenancy["+sc.Class+"].P99", sc.P99, 99, dist)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no serving-class campaign cells found under " + campaignsDir)
	}
	t.Logf("checked %d sketch percentiles; worst offender: %s", checked, worstDesc)
}
