package exper

import (
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xartrek/internal/elastic"
	"xartrek/internal/faults"
	"xartrek/internal/golden"
	"xartrek/internal/quantile"
)

// TestMillionRequestSketchMemorySmoke is the memory-regression gate
// for the million-request regime: it runs the checked-in rack256 cell
// (examples/campaigns/rack256.json — ~1M Poisson requests on a
// 256-node rack in sketch latency mode) and asserts the peak heap
// stays under a pinned budget. Arrivals are drawn lazily in every
// latency mode, and histogram-backed percentiles keep the latency
// record bounded too, so the working set is O(in-flight): far below what
// materialising the stream (~48 B of arrival plus ~8 B of latency per
// request, plus one heap event each) would need. The report must also
// match its golden, testdata/golden/rack256-1m.json, so a moved
// rack256 report fails here, naming the values that moved, and its
// p50, p95 and p99 must lie within the sketch's value bound of an
// exact twin's. Gated behind XARTREK_MEM_SMOKE because the cell takes
// seconds; CI runs it as a dedicated job under GODEBUG=gctrace=1.
func TestMillionRequestSketchMemorySmoke(t *testing.T) {
	if os.Getenv("XARTREK_MEM_SMOKE") == "" {
		t.Skip("set XARTREK_MEM_SMOKE=1 to run the million-request memory smoke")
	}
	arts := testArtifacts(t)
	rep, wall, peak, links := runCampaignWithPeakHeap(t, arts, "rack256.json", nil)

	r := rep.Cells[0].Serving
	if r.LatencyMode != LatencySketch {
		t.Fatalf("rack256 cell ran in %q latency mode, want sketch", r.LatencyMode)
	}
	if r.Offered < 1_000_000 {
		t.Fatalf("offered %d requests, want >= 1M (spec drifted?)", r.Offered)
	}
	if r.Completed == 0 || r.P99 == 0 {
		t.Fatalf("degenerate result: completed=%d p99=%v", r.Completed, r.P99)
	}

	// Budget: 2.8x the 3.9 MiB peak measured over four runs on a
	// 2-vCPU host, far below what an O(total-requests) engine needs
	// for this cell (materialising 1M arrivals, latencies and injector
	// events costs well over 150 MiB). A regression that
	// re-materialises the stream or the latency slice, keeps idle
	// links (5.6-5.9 MiB with a server for each of the 12,288 pairs
	// touched), or triples the working set fails it. The link pool
	// allocates 536 servers; the gate is twice that.
	const heapBudget = 11 << 20
	peakMB := float64(peak) / (1 << 20)
	t.Logf("rack256-1m: offered=%d completed=%d p50=%v p99=%v", r.Offered, r.Completed, r.P50, r.P99)
	t.Logf("rack256-1m: wall=%v rate=%.0f req/wall-s peak-heap=%.1f MiB", wall.Round(time.Millisecond),
		float64(r.Offered)/wall.Seconds(), peakMB)
	if peak > heapBudget {
		t.Fatalf("peak heap %.1f MiB exceeds the %d MiB budget", peakMB, heapBudget>>20)
	}
	checkLinkServers(t, "rack256-1m", links, 2*536)
	golden.Check(t, filepath.Join("testdata", "golden", "rack256-1m.json"), goldenJSON(t, rep))
	checkExactTwin(t, "rack256-1m", "rack256.json", r)
}

// TestMultiMillionShardedMemorySmoke is the sharded twin at the next
// scale up: the checked-in rack1024 cell (~4.2M Poisson requests on a
// 1024-node rack, options.shards: 8), O(shards x in-flight), nowhere
// near the ~350 MiB an O(total-requests) engine would need. As many
// 128-node sub-timelines are live at once as the worker pool runs, so
// the peak grows with GOMAXPROCS: 5.1-5.6 MiB over four runs at 2,
// 11.7 MiB at 4 and 14.8 MiB at 8 (one run each, on a 2-vCPU host).
// The 16 MiB budget is 2.9x the 2-vCPU peak and still holds all eight
// shards live. The eight shards allocate 2,028 link servers between
// them; the gate is twice that. Its p50, p95 and p99 must lie within
// the sketch's value bound of an exact twin's.
func TestMultiMillionShardedMemorySmoke(t *testing.T) {
	r := rack1024MemorySmoke(t, "rack1024-4m", 16<<20, 2*2028, nil)
	checkExactTwin(t, "rack1024-4m", "rack1024.json", r)
}

// TestUnshardedRack1024MemorySmoke runs the rack1024 cell with its
// shards option removed: one timeline over all 1024 nodes. Its pair
// table has 523,776 slots, and a pair holds a link only while a
// transfer is in flight: the cell allocates 2,114 link servers (the
// gate is twice that) where its requests touch 196,548 pairs. It
// peaked at 18.2 MiB over four runs on a 2-vCPU host, where keeping a
// link for every touched pair needed 47.2-47.4 MiB and the eager
// all-pairs table ~200 MiB. The budget is 2.9x that peak.
func TestUnshardedRack1024MemorySmoke(t *testing.T) {
	rack1024MemorySmoke(t, "rack1024-unsharded", 52<<20, 2*2114, func(spec *CampaignSpec) {
		spec.Cells[0].Options.Shards = 0
	})
}

// rack1024MemorySmoke runs the checked-in rack1024 cell, after an
// optional spec edit, and asserts its shape, a peak-heap budget, a
// link-server budget and its report against the golden
// testdata/golden/<label>.json. It returns the cell's serving result.
func rack1024MemorySmoke(t *testing.T, label string, heapBudget uint64, linkBudget int, edit func(*CampaignSpec)) *ServingResult {
	t.Helper()
	if os.Getenv("XARTREK_MEM_SMOKE") == "" {
		t.Skip("set XARTREK_MEM_SMOKE=1 to run the multi-million-request memory smoke")
	}
	arts := testArtifacts(t)
	rep, wall, peak, links := runCampaignWithPeakHeap(t, arts, "rack1024.json", edit)

	r := rep.Cells[0].Serving
	if r.LatencyMode != LatencySketch {
		t.Fatalf("rack1024 cell ran in %q latency mode, want sketch", r.LatencyMode)
	}
	if r.Offered < 4_000_000 {
		t.Fatalf("offered %d requests, want >= 4M (spec drifted?)", r.Offered)
	}
	if r.Completed == 0 || r.P99 == 0 {
		t.Fatalf("degenerate result: completed=%d p99=%v", r.Completed, r.P99)
	}

	peakMB := float64(peak) / (1 << 20)
	t.Logf("%s: offered=%d completed=%d p50=%v p99=%v", label, r.Offered, r.Completed, r.P50, r.P99)
	t.Logf("%s: wall=%v rate=%.0f req/wall-s peak-heap=%.1f MiB", label, wall.Round(time.Millisecond),
		float64(r.Offered)/wall.Seconds(), peakMB)
	if peak > heapBudget {
		t.Fatalf("peak heap %.1f MiB exceeds the %d MiB budget", peakMB, heapBudget>>20)
	}
	checkLinkServers(t, label, links, linkBudget)
	golden.Check(t, filepath.Join("testdata", "golden", label+".json"), goldenJSON(t, rep))
	return r
}

// loadCampaign parses one checked-in campaign spec and applies an
// optional edit.
func loadCampaign(t *testing.T, specFile string, edit func(*CampaignSpec)) CampaignSpec {
	t.Helper()
	f, err := os.Open(filepath.Join(campaignsDir, specFile))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseCampaign(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(spec)
	}
	return *spec
}

// runCampaignWithPeakHeap runs one checked-in campaign spec, after an
// optional edit, while a sampler goroutine tracks the peak heap. It
// collects garbage first, so the peak starts from the live heap rather
// than from an earlier test's garbage. ReadMemStats between GCs tracks
// live-plus-floating garbage, which is the budget that actually
// matters for not getting OOM-killed. It also returns the link servers
// the cell's timelines allocated, summed over its shards.
func runCampaignWithPeakHeap(t *testing.T, arts *Artifacts, specFile string, edit func(*CampaignSpec)) (*Report, time.Duration, uint64, int) {
	t.Helper()
	spec := loadCampaign(t, specFile, edit)
	var links atomic.Int64
	testServingDone = func(p *Platform, _ servingPart, _ *timelineLat) {
		links.Add(int64(len(p.Cluster.LinkServers())))
	}
	defer func() { testServingDone = nil }()
	runtime.GC()
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()

	start := time.Now()
	rep, err := RunCampaign(arts, spec, RunOpts{BaseDir: campaignsDir})
	wall := time.Since(start)
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return rep, wall, peak.Load(), int(links.Load())
}

// checkLinkServers logs the link servers a cell's timelines allocated
// and fails above the budget: a link pool that stops returning idle
// servers, or a table that keeps every pair it touched, multiplies
// the count.
func checkLinkServers(t *testing.T, label string, links, budget int) {
	t.Helper()
	t.Logf("%s: %d link servers allocated", label, links)
	if links > budget {
		t.Fatalf("%s: %d link servers allocated, above the budget of %d", label, links, budget)
	}
}

// checkExactTwin reruns a checked-in sketch-mode rack cell with exact
// latencies and checks that the sketch run's p50, p95 and p99 each lie
// within quantile.DefaultEpsilon of the exact twin's, relative to it.
// The twin runs after the peak-heap measurement, so its samples do not
// count against the budget.
func checkExactTwin(t *testing.T, label, specFile string, sk *ServingResult) {
	t.Helper()
	spec := loadCampaign(t, specFile, nil)
	spec.Cells[0].Options.LatencyMode = LatencyExact
	start := time.Now()
	rep, err := RunCampaign(testArtifacts(t), spec, RunOpts{BaseDir: campaignsDir})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: the exact twin ran in %v", label, time.Since(start).Round(time.Millisecond))
	ex := rep.Cells[0].Serving
	if ex.Offered != sk.Offered || ex.Completed != sk.Completed {
		t.Fatalf("%s: the exact twin diverged: offered %d/%d completed %d/%d", label, ex.Offered, sk.Offered, ex.Completed, sk.Completed)
	}
	for _, p := range []struct {
		name       string
		got, exact time.Duration
	}{{"P50", sk.P50, ex.P50}, {"P95", sk.P95, ex.P95}, {"P99", sk.P99, ex.P99}} {
		rel := sketchErr(p.got, p.exact)
		t.Logf("%s: sketch %s %d ns, exact %d ns, off by %.4f%%", label, p.name, p.got, p.exact, 100*rel)
		if rel > quantile.DefaultEpsilon {
			t.Errorf("%s: sketch %s = %v, exact %v: beyond the %v value bound", label, p.name, p.got, p.exact, quantile.DefaultEpsilon)
		}
	}
}

// TestTenantsChurnExactMemorySmoke is the exact-mode memory gate: the
// checked-in tenants cell edited into the tenants-churn shape (rack64,
// 16 x86, 48 ARM and 8 FPGA nodes; the deadline policy at 56 req/s for
// 7200 s, ~400k requests; exact latencies; drop admission at queue cap
// 16; node and FPGA churn with retries). The cell reports its latencies
// cell-wide, per SLO class and per application, and holds each of its
// ~400k completion latencies once, as the leaf of its (class,
// application) pair. The 12 MiB budget leaves 1.5x headroom over the
// ~7.9 MiB peak measured so, and sits below the 16-17.6 MiB the same
// cell peaked at when each reported distribution kept its own copy
// (BENCH.md). It allocates 16 link servers, where it touched 768
// entry-ARM pairs; the gate is twice that. The report must match
// testdata/golden/tenants-churn.json.
func TestTenantsChurnExactMemorySmoke(t *testing.T) {
	if os.Getenv("XARTREK_MEM_SMOKE") == "" {
		t.Skip("set XARTREK_MEM_SMOKE=1 to run the exact-mode memory smoke")
	}
	arts := testArtifacts(t)
	rep, wall, peak, links := runCampaignWithPeakHeap(t, arts, "tenants.json", func(spec *CampaignSpec) {
		c := &spec.Cells[0]
		c.Name = "tenants-churn"
		c.Topology = &TopologySpec{Kind: "scale-out", Name: "rack64", X86: 16, ARM: 48, FPGAs: 8}
		c.Policy, c.Policies = PolicyDeadline, nil
		c.Rate, c.Duration = 56, Duration(7200*time.Second)
		c.Options = &Options{LatencyMode: LatencyExact}
		c.Admission = &elastic.AdmissionSpec{QueueCap: 16, Policy: elastic.Drop}
		c.Faults = &faults.Spec{
			MaxRetries:   3,
			RetryBackoff: faults.Duration(10 * time.Millisecond),
			Churn: []faults.Churn{
				{Kind: "node", Targets: []string{"arm-10", "arm-11", "arm-20", "x86-03", "x86-07"},
					MTBF: faults.Duration(60 * time.Second), MTTR: faults.Duration(5 * time.Second)},
				{Kind: "fpga", Targets: []string{"fpga-01", "fpga-05"},
					MTBF: faults.Duration(120 * time.Second), MTTR: faults.Duration(10 * time.Second)},
			},
		}
	})

	if len(rep.Cells) != 1 {
		t.Fatalf("%d cells, want the one edited cell", len(rep.Cells))
	}
	r := rep.Cells[0].Serving
	if r.LatencyMode != "" || r.Faults == nil || r.Tenancy == nil || r.Shed == 0 {
		t.Fatalf("cell lost its shape: latency mode %q, faults %v, tenancy %v, shed %d", r.LatencyMode, r.Faults != nil, r.Tenancy != nil, r.Shed)
	}
	if r.Offered < 390_000 || r.Completed == 0 || len(r.Faults.ClassP99) != 5 {
		t.Fatalf("degenerate result: offered=%d completed=%d per-app p99s=%d", r.Offered, r.Completed, len(r.Faults.ClassP99))
	}

	const heapBudget = 12 << 20
	peakMB := float64(peak) / (1 << 20)
	t.Logf("tenants-churn: offered=%d completed=%d p50=%v p99=%v", r.Offered, r.Completed, r.P50, r.P99)
	t.Logf("tenants-churn: wall=%v rate=%.0f req/wall-s peak-heap=%.1f MiB", wall.Round(time.Millisecond),
		float64(r.Offered)/wall.Seconds(), peakMB)
	if peak > heapBudget {
		t.Fatalf("peak heap %.1f MiB exceeds the %d MiB budget", peakMB, heapBudget>>20)
	}
	checkLinkServers(t, "tenants-churn", links, 2*16)
	golden.Check(t, filepath.Join("testdata", "golden", "tenants-churn.json"), goldenJSON(t, rep))
}
