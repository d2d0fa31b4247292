package exper

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"xartrek/internal/faults"
	"xartrek/internal/golden"
)

// latencyCountsGolden pins how many completions each exact-mode
// distribution of TestLatencyStoredOnce's runs counts.
const latencyCountsGolden = "testdata/latency_counts.txt"

// latencyRun is one run TestLatencyStoredOnce makes.
type latencyRun struct {
	label string
	cell  servingCell
	spec  CellSpec
}

// latencyRuns lists every exact-mode serving-class cell of the small
// checked-in campaigns that has a workload or faults: as checked in;
// at min(4, x86 nodes) shards when shardable (no faults, admission or
// autoscaler, two or more x86 nodes); and, for a workload cell, with
// node and FPGA churn added, so a run keeps leaves per SLO class and
// per application at once.
func latencyRuns(t *testing.T) []latencyRun {
	t.Helper()
	var out []latencyRun
	for _, c := range smallServingCells(t) {
		faulted := c.spec.Faults != nil && !c.spec.Faults.Empty()
		exact := c.spec.Options == nil || c.spec.Options.LatencyMode != LatencySketch
		if !exact || !(faulted || c.spec.Workload.Enabled()) {
			continue
		}
		out = append(out, latencyRun{c.String(), c, c.spec})
		fleetLocal := !faulted && !c.spec.Admission.Enabled() && !c.spec.Autoscaler.Enabled()
		if shards := min(4, cellEntryNodes(t, c.spec)); fleetLocal && shards > 1 {
			sh := c.spec
			opts := Options{}
			if sh.Options != nil {
				opts = *sh.Options
			}
			opts.Shards = shards
			sh.Options = &opts
			out = append(out, latencyRun{c.String() + " (shards)", c, sh})
		}
		if c.spec.Workload.Enabled() && !faulted {
			ch := c.spec
			ch.Faults = &faults.Spec{
				MaxRetries:   3,
				RetryBackoff: faults.Duration(10 * time.Millisecond),
				Churn: []faults.Churn{
					{Kind: "node", Targets: []string{"arma-00"}, MTBF: faults.Duration(8 * time.Second), MTTR: faults.Duration(2 * time.Second)},
					{Kind: "fpga", Targets: []string{"fpga-01"}, MTBF: faults.Duration(10 * time.Second), MTTR: faults.Duration(3 * time.Second)},
				},
			}
			out = append(out, latencyRun{c.String() + " (churn)", c, ch})
		}
	}
	return out
}

// TestLatencyStoredOnce checks that a run stores each completion
// latency once, counted rather than weighed in noisy heap bytes, in
// both latency modes. After every serving timeline, the distinct leaves
// behind the timeline's digests (cell-wide, per SLO class, per
// application) must hold exactly its Completed samples, however many
// digests list them: counted as samples in exact mode and as summed
// histogram counts in the sketch twin of each run. Per exact run, the
// distributions the test sink receives must count the completions
// pinned in testdata/latency_counts.txt, which records what the engine
// counted when each digest kept its own copy; the per-class and the
// per-application distributions must each split the cell-wide one. Run
// with -update to rewrite the table.
func TestLatencyStoredOnce(t *testing.T) {
	arts := testArtifacts(t)
	var (
		mu     sync.Mutex
		counts map[string]int // per sink kind, summed over the run's reads
	)
	testLatencySink = func(_, kind string, sorted []time.Duration) {
		mu.Lock()
		counts[kind] += len(sorted)
		mu.Unlock()
	}
	testServingDone = func(_ *Platform, part servingPart, lat *timelineLat) {
		seen := make(map[*latLeaf]bool)
		held := 0
		for _, d := range slices.Concat([]*latDigest{lat.all}, lat.classes, lat.apps) {
			for _, l := range d.leaves {
				if !seen[l] {
					seen[l] = true
					held += l.count()
				}
			}
		}
		if held != part.res.Completed {
			t.Errorf("%s (latency mode %q): the leaves hold %d samples, the timeline completed %d",
				part.res.Name, part.res.LatencyMode, held, part.res.Completed)
		}
	}
	defer func() { testLatencySink, testServingDone = nil, nil }()
	var b strings.Builder
	for _, r := range latencyRuns(t) {
		counts = make(map[string]int)
		if _, err := RunCampaign(arts, r.cell.campaign(r.spec), RunOpts{BaseDir: campaignsDir}); err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		var kinds []string
		split := make(map[string]int) // "class:" and "slo:" sums
		for kind, n := range counts {
			kinds = append(kinds, kind)
			if prefix, _, ok := strings.Cut(kind, ":"); ok {
				split[prefix] += n
			}
		}
		for prefix, n := range split {
			if n != counts["latency"] {
				t.Errorf("%s: the %s distributions count %d completions, the cell-wide one %d", r.label, prefix, n, counts["latency"])
			}
		}
		sort.Strings(kinds)
		fmt.Fprintf(&b, "%s", r.label)
		for _, kind := range kinds {
			fmt.Fprintf(&b, " %s=%d", kind, counts[kind])
		}
		b.WriteByte('\n')

		sk := r.spec
		opts := Options{}
		if sk.Options != nil {
			opts = *sk.Options
		}
		opts.LatencyMode = LatencySketch
		sk.Options = &opts
		if _, err := RunCampaign(arts, r.cell.campaign(sk), RunOpts{BaseDir: campaignsDir}); err != nil {
			t.Fatalf("%s in sketch mode: %v", r.label, err)
		}
	}
	golden.Check(t, latencyCountsGolden, []byte(b.String()))
}

// TestTimelineLatLeafGrid checks the leaf layout of a run that reports
// both SLO classes and applications, in both latency modes: each
// (class, application) pair gets one leaf, shared by the cell-wide
// digest, its class's digest and its application's digest. An exact
// leaf holds samples, a sketch leaf one histogram.
func TestTimelineLatLeafGrid(t *testing.T) {
	pool := arrivalPool
	for _, sketch := range []bool{false, true} {
		lat := newTimelineLat(sketch, 2, pool, true)
		for c := range 2 {
			for _, app := range pool {
				if l := lat.leaf(c, app.Name); l != lat.leaf(c, app.Name) {
					t.Fatalf("sketch=%v: class %d app %s: a second bind made a second leaf", sketch, c, app.Name)
				}
			}
		}
		for c := range 2 {
			for a, app := range pool {
				l := lat.leaf(c, app.Name)
				if (l.hist != nil) != sketch {
					t.Fatalf("sketch=%v: class %d app %s: leaf holds a histogram: %v", sketch, c, app.Name, l.hist != nil)
				}
				l.add(time.Duration(10*c+a) * time.Millisecond)
			}
		}
		if got := lat.all.count(); got != 6 {
			t.Errorf("sketch=%v: cell-wide count %d, want 6", sketch, got)
		}
		if n := len(lat.all.leaves); n != 6 {
			t.Errorf("sketch=%v: the cell-wide digest lists %d leaves, want 6", sketch, n)
		}
		for c, d := range lat.classes {
			if got := d.count(); got != 3 {
				t.Errorf("sketch=%v: class %d count %d, want 3", sketch, c, got)
			}
			if got, want := d.percentile(100), time.Duration(10*c+2)*time.Millisecond; got != want {
				t.Errorf("sketch=%v: class %d max %v, want %v", sketch, c, got, want)
			}
			for a, l := range d.leaves {
				if l != lat.leaf(c, pool[a].Name) {
					t.Errorf("sketch=%v: class %d lists a leaf of another pair at %d", sketch, c, a)
				}
			}
		}
		for a, d := range lat.apps {
			if lat.appNames[a] != pool[a].Name {
				t.Errorf("app slot %d is %s, want %s", a, lat.appNames[a], pool[a].Name)
			}
			if got := d.count(); got != 2 {
				t.Errorf("sketch=%v: app %s count %d, want 2", sketch, pool[a].Name, got)
			}
			for c, l := range d.leaves {
				if l != lat.leaf(c, pool[a].Name) {
					t.Errorf("sketch=%v: app %s lists a leaf of another pair at %d", sketch, pool[a].Name, c)
				}
			}
		}
	}
	// Without faults the applications share one leaf per class.
	lat := newTimelineLat(false, 2, pool, false)
	if lat.leaf(1, pool[0].Name) != lat.leaf(1, pool[2].Name) || lat.apps != nil {
		t.Errorf("a run without per-application latencies kept leaves per application")
	}
	if n := len(lat.all.leaves); n != 1 {
		t.Errorf("one bound class: the cell-wide digest lists %d leaves, want 1", n)
	}
}
