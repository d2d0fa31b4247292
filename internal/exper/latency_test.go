package exper

import (
	"slices"
	"testing"
	"time"
)

// percentile is the nearest-rank percentile of an ascending-sorted
// latency slice: the sample at rank ceil(pct/100 · n), with the rank
// clamped to [1, n], zero when empty. It is the sorted reference the
// exact-mode digest's selection must agree with.
func percentile(sorted []time.Duration, pct int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100 // ceil(pct/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// exactDigestOf builds an exact-mode digest over a copy of samples.
func exactDigestOf(samples []time.Duration) *latDigest {
	d := newLatDigest(false)
	for _, v := range samples {
		d.add(v)
	}
	return d
}

// TestPercentileNearestRank pins the nearest-rank edge conventions
// documented on latDigest.percentile, on the sorted reference and on
// exact-mode digests fed the samples ascending and descending.
func TestPercentileNearestRank(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name    string
		samples []time.Duration
		pct     int
		want    time.Duration
	}{
		{"p50", lat, 50, 5},
		{"p99", lat, 99, 10},
		{"p50 of nil", nil, 50, 0},
		{"p95 of singleton", lat[:1], 95, 1},
		// pct=100 is exactly the maximum (rank n, no overshoot), pct=0
		// and negative pct clamp to rank 1 (the minimum — nearest-rank
		// has no rank 0), pct above 100 clamps to the maximum, and the
		// empty slice reports 0 at the extremes too.
		{"p100 is the maximum", lat, 100, 10},
		{"p0 is the minimum", lat, 0, 1},
		{"negative pct is the minimum", lat, -5, 1},
		{"p150 is the maximum", lat, 150, 10},
		{"p100 of empty", []time.Duration{}, 100, 0},
		{"p100 of singleton", lat[:1], 100, 1},
		{"p0 of singleton", lat[:1], 0, 1},
		// Exact rank arithmetic just below and at a rank boundary: p10
		// of ten samples is exactly rank 1; p11 crosses to rank 2.
		{"p10 is rank 1", lat, 10, 1},
		{"p11 is rank 2", lat, 11, 2},
	}
	for _, tc := range cases {
		if got := percentile(tc.samples, tc.pct); got != tc.want {
			t.Errorf("%s: sorted reference = %v, want %v", tc.name, got, tc.want)
		}
		desc := slices.Clone(tc.samples)
		slices.Reverse(desc)
		for _, in := range [][]time.Duration{tc.samples, desc} {
			if got := exactDigestOf(in).percentile(tc.pct); got != tc.want {
				t.Errorf("%s: digest over %v = %v, want %v", tc.name, in, got, tc.want)
			}
		}
	}
}

// TestLatDigestMatchesPercentile pins that the exact-mode digest is the
// same function as percentile() and that the sketch-mode digest agrees
// with it on a stream small enough for the sketch to be exact-by-
// construction plus bounded beyond that. After the reads have
// reordered the exact samples, the sink must still receive them
// ascending, as the sketch differential tests assume.
func TestLatDigestMatchesPercentile(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		d := newLatDigest(sketch)
		var ref []time.Duration
		for i := 0; i < 200; i++ {
			v := time.Duration((i*37)%200) * time.Millisecond
			d.add(v)
			ref = append(ref, v)
		}
		slices.Sort(ref)
		if d.count() != len(ref) {
			t.Fatalf("sketch=%v: count %d, want %d", sketch, d.count(), len(ref))
		}
		for _, pct := range []int{0, 1, 10, 50, 95, 99, 100} {
			if got, want := d.percentile(pct), percentile(ref, pct); got != want {
				t.Fatalf("sketch=%v: p%d = %v, want %v", sketch, pct, got, want)
			}
		}
		if !sketch {
			var got []time.Duration
			testLatencySink = func(_, _ string, sorted []time.Duration) { got = slices.Clone(sorted) }
			d.sink("cell", "latency")
			testLatencySink = nil
			if !slices.Equal(got, ref) {
				t.Fatalf("sink got %v, want the samples ascending", got)
			}
		}
	}
	for _, sketch := range []bool{false, true} {
		d := newLatDigest(sketch)
		if got := d.percentile(99); got != 0 {
			t.Fatalf("sketch=%v: empty digest p99 = %v, want 0", sketch, got)
		}
	}
}

// FuzzLatDigestPercentile reads fuzzed percentiles from an exact-mode
// digest and compares each with percentile over a sorted copy. The
// samples are the input's bytes, narrowed to a few values for
// duplicate-heavy inputs or shaped into an all-equal, ascending,
// descending or organ-pipe run; the percentiles include 0, 100,
// negative and >100 values. Reads run back to back on one digest, so
// each selection starts from the order the previous one left, and a
// last selection with a fuzzed round budget exercises the sort
// fallback. Every read must leave the digest a permutation of the
// samples.
func FuzzLatDigestPercentile(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, byte(0), int16(50), int16(95), int16(99), byte(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, byte(1), int16(0), int16(100), int16(-3), byte(1))
	f.Add([]byte("ascending and descending runs of samples"), byte(2), int16(150), int16(1), int16(50), byte(2))
	f.Add([]byte("duplicate-heavy narrowed samples"), byte(5), int16(99), int16(50), int16(95), byte(40))
	f.Add([]byte{}, byte(0), int16(50), int16(0), int16(100), byte(0))
	f.Fuzz(func(t *testing.T, raw []byte, shape byte, pa, pb, pc int16, rounds byte) {
		samples := make([]time.Duration, len(raw))
		for i, b := range raw {
			v := time.Duration(b)
			if shape&4 != 0 {
				v %= 4
			}
			samples[i] = v
		}
		switch shape % 4 {
		case 1:
			for i := range samples {
				samples[i] = samples[0]
			}
		case 2:
			slices.Sort(samples)
		case 3:
			slices.Sort(samples)
			if shape&8 != 0 {
				// Organ pipe: ascending then descending.
				slices.Reverse(samples[len(samples)/2:])
			} else {
				slices.Reverse(samples)
			}
		}
		ref := slices.Clone(samples)
		slices.Sort(ref)
		d := exactDigestOf(samples)
		permuted := func(read string) {
			t.Helper()
			held := slices.Clone(d.exact)
			slices.Sort(held)
			if !slices.Equal(held, ref) {
				t.Fatalf("%s changed the samples: %v, want a permutation of %v", read, d.exact, samples)
			}
		}
		check := func(pct int, got time.Duration) {
			t.Helper()
			if want := percentile(ref, pct); got != want {
				t.Fatalf("p%d = %v, want %v (samples %v)", pct, got, want, samples)
			}
			permuted("a percentile read")
		}
		for _, pct := range []int{int(pa), int(pb), int(pc)} {
			check(pct, d.percentile(pct))
		}
		p50, p95, p99 := d.quantiles()
		check(50, p50)
		check(95, p95)
		check(99, p99)
		if n := len(d.exact); n > 0 {
			k, budget := int(uint16(pa))%n, int(rounds)%8
			if got := selectRank(d.exact, k, budget); got != ref[k] {
				t.Fatalf("rank %d with a %d-round budget = %v, want %v (samples %v)", k, budget, got, ref[k], samples)
			}
			permuted("a budgeted selection")
		}
	})
}
