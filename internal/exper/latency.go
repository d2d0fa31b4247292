package exper

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"xartrek/internal/quantile"
)

// Latency-distribution modes selectable per cell or per run through
// Options.LatencyMode. The empty string selects LatencyExact.
const (
	// LatencyExact retains every completion latency and reports exact
	// nearest-rank percentiles — the byte-identical default, O(n)
	// memory over the campaign.
	LatencyExact = "exact"
	// LatencySketch streams latencies into a GK quantile sketch
	// (quantile.DefaultEpsilon rank error) and generates Poisson
	// arrivals lazily, so a serving cell's memory is O(in-flight)
	// regardless of request count — the million-request regime.
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

// latDigest accumulates one completion-latency distribution. In exact
// mode every sample is retained and each nearest-rank percentile is
// read by in-place selection (selectRank), which returns the same
// sample a full sort would, since the value at a given rank is unique;
// reads reorder the slice. In sketch mode samples stream into a GK
// summary and only O(1/eps·log n) tuples are held, with rank error
// bounded by quantile.DefaultEpsilon (the differential tests pin
// sketch-vs-exact agreement to 1%).
type latDigest struct {
	exact  []time.Duration
	sketch *quantile.Sketch
}

// newLatDigest returns an exact- or sketch-backed digest.
func newLatDigest(sketch bool) *latDigest {
	if sketch {
		return &latDigest{sketch: quantile.New(quantile.DefaultEpsilon)}
	}
	return &latDigest{}
}

// add records one sample.
func (d *latDigest) add(v time.Duration) {
	if d.sketch != nil {
		d.sketch.Add(int64(v))
		return
	}
	d.exact = append(d.exact, v)
}

// count reports the number of samples recorded.
func (d *latDigest) count() int {
	if d.sketch != nil {
		return int(d.sketch.Count())
	}
	return len(d.exact)
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
// Both modes answer the same rank query (the quantile package's
// Quantile uses the same ceil(q·n) rank), so exact and sketch modes
// differ only by the sketch's bounded rank error.
func (d *latDigest) percentile(pct int) time.Duration {
	if d.sketch != nil {
		n := d.sketch.Count()
		if n == 0 {
			return 0
		}
		rank := (int64(pct)*n + 99) / 100
		return time.Duration(d.sketch.QuantileAtRank(rank))
	}
	n := len(d.exact)
	if n == 0 {
		return 0
	}
	rank := min(max((pct*n+99)/100, 1), n) // ceil(pct/100 * n)
	return selectRank(d.exact, rank-1, 2*bits.Len(uint(n)))
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

// sink hands an exact-mode distribution, sorted ascending, to
// testLatencySink when a test installed one. Only tests install a
// sink, so only they pay for the sort.
func (d *latDigest) sink(cell, kind string) {
	if testLatencySink != nil && d.sketch == nil {
		slices.Sort(d.exact)
		testLatencySink(cell, kind, d.exact)
	}
}

// testLatencySink, when non-nil, receives every exact-mode latency
// distribution (sorted ascending) as a run finalizes: the sketch
// differential tests use it to measure rank error against the exact
// reference without the production result retaining per-request data.
// kind is "latency", "recovery", "class:<app>" or "slo:<class>" (a
// workload-driven run's per-SLO-class distribution).
var testLatencySink func(cell, kind string, sorted []time.Duration)
