package exper

import (
	"fmt"
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
// mode every sample is retained and percentiles are nearest-rank over
// the sorted slice — bit-identical to the pre-sketch engine. In sketch
// mode samples stream into a GK summary and only O(1/eps·log n) tuples
// are held, with rank error bounded by quantile.DefaultEpsilon (the
// differential tests pin sketch-vs-exact agreement to 1%).
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

// seal prepares the digest for percentile queries (sorts the exact
// sample slice; sketch digests need nothing). Call once after the last
// add. The samples are plain integers, so the ordered sort yields the
// same slice as any comparison sort, without a per-compare closure.
func (d *latDigest) seal() {
	if d.sketch == nil {
		slices.Sort(d.exact)
	}
}

// percentile reports the nearest-rank percentile under the same
// convention as percentile(): rank ceil(pct·n/100) clamped to [1, n],
// zero when empty.
func (d *latDigest) percentile(pct int) time.Duration {
	if d.sketch != nil {
		n := d.sketch.Count()
		if n == 0 {
			return 0
		}
		rank := (int64(pct)*n + 99) / 100
		return time.Duration(d.sketch.QuantileAtRank(rank))
	}
	return percentile(d.exact, pct)
}

// quantiles seals the digest and reads the percentiles serving reports
// carry.
func (d *latDigest) quantiles() (p50, p95, p99 time.Duration) {
	d.seal()
	return d.percentile(50), d.percentile(95), d.percentile(99)
}

// sink hands a sealed exact-mode distribution to testLatencySink, when
// a test installed one.
func (d *latDigest) sink(cell, kind string) {
	if testLatencySink != nil && d.sketch == nil {
		testLatencySink(cell, kind, d.exact)
	}
}

// testLatencySink, when non-nil, receives every exact-mode latency
// distribution (sealed, ascending) as a run finalizes: the sketch
// differential tests use it to measure rank error against the exact
// reference without the production result retaining per-request data.
// kind is "latency", "recovery", "class:<app>" or "slo:<class>" (a
// workload-driven run's per-SLO-class distribution).
var testLatencySink func(cell, kind string, sorted []time.Duration)
