package exper

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"xartrek/internal/quantile"
	"xartrek/internal/workloads"
)

// Latency-distribution modes selectable per cell or per run through
// Options.LatencyMode. The empty string selects LatencyExact.
const (
	// LatencyExact retains every completion latency and reports exact
	// nearest-rank percentiles — the byte-identical default, O(n)
	// memory over the campaign.
	LatencyExact = "exact"
	// LatencySketch counts latencies in log-linear histograms
	// (internal/quantile), so a serving cell's memory is O(in-flight)
	// regardless of request count — the million-request regime — and
	// each percentile lies within quantile.DefaultEpsilon of the exact
	// one. Arrivals are drawn lazily in both modes; only the latency
	// store differs.
	LatencySketch = "sketch"
)

// parseLatencyMode resolves an Options.LatencyMode name to its sketch
// switch.
func parseLatencyMode(s string) (bool, error) {
	switch s {
	case "", LatencyExact:
		return false, nil
	case LatencySketch:
		return true, nil
	}
	return false, fmt.Errorf("exper: unknown latency mode %q (want %s or %s)", s, LatencyExact, LatencySketch)
}

// latLeaf holds the completion latencies of one (SLO class,
// application) pair of a serving timeline, and every digest that
// covers the pair lists the leaf. In exact mode it stores each sample
// once; in sketch mode it counts them in one histogram.
type latLeaf struct {
	samples []time.Duration
	hist    *quantile.Sketch
}

// newLatLeaf returns an empty leaf of the given latency mode.
func newLatLeaf(sketch bool) *latLeaf {
	if sketch {
		return &latLeaf{hist: quantile.New(quantile.DefaultEpsilon)}
	}
	return &latLeaf{}
}

// add records one completion latency.
func (l *latLeaf) add(v time.Duration) {
	if l.hist != nil {
		l.hist.Add(int64(v))
		return
	}
	l.samples = append(l.samples, v)
}

// count reports the number of latencies the leaf holds.
func (l *latLeaf) count() int {
	if l.hist != nil {
		return int(l.hist.Count())
	}
	return len(l.samples)
}

// complete records a finished run's latency: the completion callback
// of a request whose (class, application) pair has no other
// accounting.
func (l *latLeaf) complete(run RunResult) { l.add(run.Elapsed()) }

// latDigest is one completion-latency distribution: the union of its
// leaves, which other digests may share. A plain digest is the
// one-leaf case. In exact mode each nearest-rank percentile is read by
// in-place selection over the leaves' samples (selectRank for one
// leaf, selectLeaves for several), which returns the sample a sort of
// the concatenation would, since the value at a given rank is unique;
// reads reorder the leaves and copy no sample. In sketch mode a read
// sums the leaves' histograms, and the percentile of the sum lies
// within quantile.DefaultEpsilon of the exact one.
type latDigest struct {
	leaves []*latLeaf
	// open is selectLeaves' range list, kept to be reused by the next
	// read.
	open []openRange
}

// newLatDigest returns a plain digest: one leaf of the given mode.
func newLatDigest(sketch bool) *latDigest {
	return &latDigest{leaves: []*latLeaf{newLatLeaf(sketch)}}
}

// add records one sample in a plain digest.
func (d *latDigest) add(v time.Duration) { d.leaves[0].add(v) }

// count reports the number of samples recorded.
func (d *latDigest) count() int {
	n := 0
	for _, l := range d.leaves {
		n += l.count()
	}
	return n
}

// percentile reports the nearest-rank percentile: the sample at rank
// ceil(pct/100 · n), with the rank clamped to [1, n].
//
// Edge conventions (pinned by TestPercentileNearestRank):
//   - an empty digest reports 0 for every pct;
//   - a single sample is every percentile of itself;
//   - pct=0 (and any negative pct) clamps to rank 1, the minimum —
//     nearest-rank has no rank-0 sample;
//   - pct=100 is exactly rank n, the maximum, and larger pct values
//     clamp to it.
//
// Both modes answer the same rank, and the histograms return the exact
// minimum and maximum, so the modes differ only by the value bound
// inside the bucket that holds the rank.
func (d *latDigest) percentile(pct int) time.Duration {
	n := d.count()
	if n == 0 {
		return 0
	}
	rank := min(max((pct*n+99)/100, 1), n) // ceil(pct/100 * n)
	if d.leaves[0].hist != nil {
		hists := make([]*quantile.Sketch, len(d.leaves))
		for i, l := range d.leaves {
			hists[i] = l.hist
		}
		return time.Duration(quantile.Merged(quantile.DefaultEpsilon, hists...).QuantileAtRank(int64(rank)))
	}
	rounds := 2 * bits.Len(uint(n))
	if len(d.leaves) == 1 {
		return selectRank(d.leaves[0].samples, rank-1, rounds)
	}
	return d.selectLeaves(rank-1, rounds)
}

// timelineLat is one serving timeline's latency record: the cell-wide
// digest, one digest per SLO class of a workload-driven run, and one
// per application name of a fault-injected run (its "p99 under
// churn"). Completions land in leaves, one per (class, application)
// pair along the dimensions the run reports, so a plain run has one
// leaf. Each class or application digest covers that class's or
// application's leaves and the cell-wide digest covers them all, so
// every latency is stored once.
type timelineLat struct {
	histograms bool // sketch mode: leaves hold histograms
	all        *latDigest
	classes    []*latDigest // per class slot; nil without a workload
	apps       []*latDigest // per application name; nil without faults
	appNames   []string
	appSlot    map[string]int // application name to its apps index
	grid       []*latLeaf     // per (class slot, app slot), nil until bound
}

// newTimelineLat builds the record of a timeline that reports nClasses
// SLO classes (0 without a workload) and, when perApp is set, every
// application of pool by name.
func newTimelineLat(sketch bool, nClasses int, pool []*workloads.App, perApp bool) *timelineLat {
	t := &timelineLat{histograms: sketch, all: &latDigest{}}
	for range nClasses {
		t.classes = append(t.classes, &latDigest{})
	}
	if perApp {
		t.appSlot = make(map[string]int, len(pool))
		for _, app := range pool {
			if _, ok := t.appSlot[app.Name]; !ok {
				t.appSlot[app.Name] = len(t.apps)
				t.apps = append(t.apps, &latDigest{})
				t.appNames = append(t.appNames, app.Name)
			}
		}
	}
	t.grid = make([]*latLeaf, max(1, nClasses)*max(1, len(t.apps)))
	return t
}

// leaf returns the leaf of class slot c (0 without a workload) and the
// named application, making it on first use and adding it to every
// digest that covers the pair. Completion callbacks resolve their leaf
// here once, when they are bound, never per request.
func (t *timelineLat) leaf(c int, app string) *latLeaf {
	a := 0
	if t.apps != nil {
		a = t.appSlot[app]
	}
	i := c*max(1, len(t.apps)) + a
	if t.grid[i] != nil {
		return t.grid[i]
	}
	l := newLatLeaf(t.histograms)
	t.all.leaves = append(t.all.leaves, l)
	if t.classes != nil {
		t.classes[c].leaves = append(t.classes[c].leaves, l)
	}
	if t.apps != nil {
		t.apps[a].leaves = append(t.apps[a].leaves, l)
	}
	t.grid[i] = l
	return l
}

// quantiles reads the percentiles serving reports carry.
func (d *latDigest) quantiles() (p50, p95, p99 time.Duration) {
	return d.percentile(50), d.percentile(95), d.percentile(99)
}

// selectRank returns the k-th smallest sample of s (0-based),
// reordering s in place: quickselect with a median-of-three pivot and
// a Hoare partition, which splits runs of equal samples evenly. After
// the given number of partition rounds it sorts the range still open;
// percentile allows 2·log2(n), so the worst case stays O(n log n).
func selectRank(s []time.Duration, k, rounds int) time.Duration {
	lo, hi := 0, len(s)-1
	for ; lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(s[lo : hi+1])
			break
		}
		// Order s[lo] <= s[mid] <= s[hi]; the ends then bound both
		// scans below.
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		p := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// Now s[lo:j+1] <= p, s[i:hi+1] >= p, and anything between
		// equals p.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// openRange is the still-open part of one leaf during a multi-leaf
// selection; after a round's partition, s[:lt] holds the samples below
// the pivot and s[gt:] those above it.
type openRange struct {
	s      []time.Duration
	lt, gt int
}

// selectLeaves returns the k-th smallest sample (0-based) of the union
// of d's leaves, reordering each leaf in place and copying no sample
// while it narrows (selectOpen). Its range list is d.open, reused from
// read to read.
func (d *latDigest) selectLeaves(k, rounds int) time.Duration {
	open := d.open[:0]
	for _, l := range d.leaves {
		if len(l.samples) > 0 {
			open = append(open, openRange{s: l.samples})
		}
	}
	v := selectOpen(open, k, rounds)
	clear(open) // hold no leaf's samples past the read
	d.open = open[:0]
	return v
}

// selectOpen returns the k-th smallest sample (0-based) of the union of
// the open ranges. Each round takes a median-of-three pivot from the
// largest open range, three-way partitions every open range around it
// and, by the summed counts, returns the pivot or keeps the side of
// every range where rank k lies. The list is narrowed in place, so a
// round allocates nothing. Once one range is left, selectRank finishes
// in it with the rounds that remain; if the rounds run out first,
// selectRank runs over a gathered copy of the open ranges.
//
// The three candidates sit at positions a xorshift walk draws, so
// neither structured samples nor the order a partition leaves (its
// upper side comes out reversed) can keep handing the rounds a skewed
// pivot; the walk starts from k, so a read is a pure function of its
// input.
func selectOpen(open []openRange, k, rounds int) time.Duration {
	x := uint64(k) | 1
	at := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		hi, _ := bits.Mul64(x, uint64(n))
		return int(hi)
	}
	for ; len(open) > 1 && rounds > 0; rounds-- {
		big := open[0].s
		for _, r := range open[1:] {
			if len(r.s) > len(big) {
				big = r.s
			}
		}
		p := median3(big[at(len(big))], big[at(len(big))], big[at(len(big))])
		below, equal := 0, 0
		for i := range open {
			r := &open[i]
			r.lt, r.gt = partition3(r.s, p)
			below += r.lt
			equal += r.gt - r.lt
		}
		if k >= below && k < below+equal {
			return p
		}
		above := k >= below+equal
		kept := 0
		for _, r := range open {
			s := r.s[:r.lt]
			if above {
				s = r.s[r.gt:]
			}
			if len(s) > 0 {
				open[kept] = openRange{s: s}
				kept++
			}
		}
		open = open[:kept]
		if above {
			k -= below + equal
		}
	}
	if len(open) == 1 {
		return selectRank(open[0].s, k, rounds)
	}
	var all []time.Duration
	for _, r := range open {
		all = append(all, r.s...)
	}
	return selectRank(all, k, 2*bits.Len(uint(len(all))))
}

// median3 returns the median of three values.
func median3(a, b, c time.Duration) time.Duration {
	if a > b {
		a, b = b, a
	}
	return max(a, min(b, c))
}

// partition3 reorders s around p in one pass: s[:lt] < p, s[lt:gt] ==
// p and s[gt:] > p.
func partition3(s []time.Duration, p time.Duration) (lt, gt int) {
	i, gt := 0, len(s)
	for i < gt {
		switch v := s[i]; {
		case v < p:
			s[lt], s[i] = v, s[lt]
			lt++
			i++
		case v > p:
			gt--
			s[i], s[gt] = s[gt], v
		default:
			i++
		}
	}
	return lt, gt
}

// sink hands an exact-mode distribution to testLatencySink when a test
// installed one: a sorted copy of its leaves' samples (none in sketch
// mode). Only tests install a sink, so only they pay for the copy and
// the sort.
func (d *latDigest) sink(cell, kind string) {
	if testLatencySink == nil {
		return
	}
	var all []time.Duration
	for _, l := range d.leaves {
		all = append(all, l.samples...)
	}
	slices.Sort(all)
	testLatencySink(cell, kind, all)
}

// testLatencySink, when non-nil, receives every latency distribution
// (sorted ascending) as a run finalizes: the sketch differential tests
// install it around an exact run to measure the sketch's error against
// the exact reference without the production result retaining
// per-request data. kind is "latency", "recovery", "class:<app>" or
// "slo:<class>" (a workload-driven run's per-SLO-class distribution).
var testLatencySink func(cell, kind string, sorted []time.Duration)
