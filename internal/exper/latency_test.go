package exper

import (
	"slices"
	"testing"
	"time"

	"xartrek/internal/quantile"
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

// leavesOf holds a copy of each sample list in a leaf of its own.
func leavesOf(lists ...[]time.Duration) []*latLeaf {
	out := make([]*latLeaf, len(lists))
	for i, s := range lists {
		out[i] = &latLeaf{samples: slices.Clone(s)}
	}
	return out
}

// dealt splits samples round-robin over k lists, so with k past the
// sample count some lists stay empty.
func dealt(samples []time.Duration, k int) [][]time.Duration {
	out := make([][]time.Duration, k)
	for i, v := range samples {
		out[i%k] = append(out[i%k], v)
	}
	return out
}

// gathered returns a sorted copy of every sample an exact digest's
// leaves hold.
func gathered(d *latDigest) []time.Duration {
	var all []time.Duration
	for _, l := range d.leaves {
		all = append(all, l.samples...)
	}
	slices.Sort(all)
	return all
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
			// The same samples dealt over three leaves (an empty one
			// for fewer than three samples) follow the same conventions.
			if got := (&latDigest{leaves: leavesOf(dealt(in, 3)...)}).percentile(tc.pct); got != tc.want {
				t.Errorf("%s: union of three leaves over %v = %v, want %v", tc.name, in, got, tc.want)
			}
		}
	}
}

// TestLatDigestMatchesPercentile pins that the exact-mode digest is the
// same function as percentile() and that every sketch-mode percentile
// lies within quantile.DefaultEpsilon of it, relative to it, with the
// extremes exact. After the reads have reordered the exact samples, the
// sink must still receive them ascending, as the sketch differential
// tests assume.
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
			got, want := d.percentile(pct), percentile(ref, pct)
			if !sketch || pct == 0 || pct == 100 {
				if got != want {
					t.Fatalf("sketch=%v: p%d = %v, want %v", sketch, pct, got, want)
				}
			} else if rel := sketchErr(got, want); rel > quantile.DefaultEpsilon {
				t.Fatalf("sketch: p%d = %v, exact %v: off by %.4f%%, beyond the %v value bound", pct, got, want, 100*rel, quantile.DefaultEpsilon)
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

// FuzzLatDigestPercentile reads fuzzed percentiles from exact-mode
// digests and compares each with percentile over a sorted copy of the
// samples the digest covers. The samples are the input's bytes,
// narrowed to a few values for duplicate-heavy inputs or shaped into an
// all-equal, ascending, descending or organ-pipe run, and dealt into 1
// to 6 leaves, round-robin or by value (some leaves then stay empty).
// Three digests read them: the union of all leaves; a second union
// sharing the first leaf with an extra leaf of its own, read right
// after the first so it starts from the order that read left; and the
// merge of two part digests that split the leaves. The percentiles
// include 0, 100, negative and >100 values, and every read must leave
// the digest a permutation of its samples. Last, a selection with a
// fuzzed round budget exercises selectRank's sort fallback on one leaf
// and selectOpen's gathered fallback on several.
func FuzzLatDigestPercentile(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, byte(0), int16(50), int16(95), int16(99), byte(0), byte(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, byte(1), int16(0), int16(100), int16(-3), byte(1), byte(2))
	f.Add([]byte("ascending and descending runs of samples"), byte(2), int16(150), int16(1), int16(50), byte(2), byte(4))
	f.Add([]byte("duplicate-heavy narrowed samples"), byte(5), int16(99), int16(50), int16(95), byte(40), byte(13))
	f.Add([]byte("organ pipe over five leaves dealt by value"), byte(11), int16(90), int16(10), int16(99), byte(3), byte(12))
	f.Add([]byte{}, byte(0), int16(50), int16(0), int16(100), byte(0), byte(5))
	f.Fuzz(func(t *testing.T, raw []byte, shape byte, pa, pb, pc int16, rounds, deal byte) {
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
		k := 1 + int(deal%6)
		lists := dealt(samples, k)
		if deal&8 != 0 {
			// By value: each leaf holds its own residue class.
			lists = make([][]time.Duration, k)
			for _, v := range samples {
				lists[int(v)%k] = append(lists[int(v)%k], v)
			}
		}
		leaves := leavesOf(lists...)
		extra := &latLeaf{samples: []time.Duration{3, 250, 3, 0}}
		half := len(leaves) / 2
		digests := []*latDigest{
			{leaves: leaves},
			{leaves: []*latLeaf{leaves[0], extra}},
			mergeLatDigests([]*latDigest{{leaves: leaves[:half]}, {leaves: leaves[half:]}}),
		}
		for di, d := range digests {
			ref := gathered(d)
			check := func(pct int, got time.Duration) {
				t.Helper()
				if want := percentile(ref, pct); got != want {
					t.Fatalf("digest %d (%d leaves): p%d = %v, want %v (samples %v)", di, len(d.leaves), pct, got, want, ref)
				}
				if held := gathered(d); !slices.Equal(held, ref) {
					t.Fatalf("digest %d: a read changed the samples to %v, want a permutation of %v", di, held, ref)
				}
			}
			for _, pct := range []int{int(pa), int(pb), int(pc), 0, 100, -7, 150} {
				check(pct, d.percentile(pct))
			}
			p50, p95, p99 := d.quantiles()
			check(50, p50)
			check(95, p95)
			check(99, p99)
			if d.count() != len(ref) {
				t.Fatalf("digest %d: count %d, want %d", di, d.count(), len(ref))
			}
		}
		ref := gathered(digests[0])
		if n := len(ref); n > 0 {
			r, budget := int(uint16(pa))%n, int(rounds)%8
			var open []openRange
			for _, l := range leaves {
				if len(l.samples) > 0 {
					open = append(open, openRange{s: l.samples})
				}
			}
			if got := selectOpen(open, r, budget); got != ref[r] {
				t.Fatalf("rank %d over %d leaves with a %d-round budget = %v, want %v", r, len(open), budget, got, ref[r])
			}
			one := exactDigestOf(ref)
			if got := selectRank(one.leaves[0].samples, r, budget); got != ref[r] {
				t.Fatalf("rank %d of one leaf with a %d-round budget = %v, want %v", r, budget, got, ref[r])
			}
			if !slices.Equal(gathered(digests[0]), ref) || !slices.Equal(gathered(one), ref) {
				t.Fatalf("a budgeted selection changed the samples")
			}
		}
	})
}

// TestSelectOpenRoundFallback forces selectOpen past its round budget
// with several ranges still open, so it gathers them and hands the copy
// to selectRank, and checks every rank against a sort of the
// concatenation. Budgets 0 and 1 leave several ranges open on these
// tables; the larger budgets finish in place.
func TestSelectOpenRoundFallback(t *testing.T) {
	cases := []struct {
		name   string
		leaves [][]time.Duration
	}{
		{"interleaved", [][]time.Duration{{9, 1, 7, 3, 5}, {8, 2, 6, 4}, {10, 0}}},
		{"disjoint ranges", [][]time.Duration{{30, 31, 32}, {1, 2, 3, 4, 5, 6}, {100}}},
		{"duplicates across leaves", [][]time.Duration{{4, 4, 1, 4}, {4, 2, 4}, {4}, {9, 4, 4}}},
		{"all equal", [][]time.Duration{{7, 7}, {7}, {7, 7, 7}}},
		{"with empty leaves", [][]time.Duration{{}, {5, 3, 1}, {}, {2, 4}, {}}},
	}
	for _, tc := range cases {
		var ref []time.Duration
		for _, l := range tc.leaves {
			ref = append(ref, l...)
		}
		slices.Sort(ref)
		for _, budget := range []int{0, 1, 2, 64} {
			for k := range ref {
				var open []openRange
				for _, l := range leavesOf(tc.leaves...) {
					if len(l.samples) > 0 {
						open = append(open, openRange{s: l.samples})
					}
				}
				if got := selectOpen(open, k, budget); got != ref[k] {
					t.Errorf("%s: rank %d with a %d-round budget = %v, want %v", tc.name, k, budget, got, ref[k])
				}
			}
		}
	}
}

// TestLatDigestUnionReadDoesNotAllocate pins that reading a multi-leaf
// union allocates nothing once its range list exists: rounds narrow it
// in place and no read copies samples.
func TestLatDigestUnionReadDoesNotAllocate(t *testing.T) {
	var samples []time.Duration
	for i := range 5000 {
		samples = append(samples, time.Duration((i*7919)%4099)*time.Microsecond)
	}
	d := &latDigest{leaves: leavesOf(dealt(samples, 5)...)}
	d.quantiles()
	if allocs := testing.AllocsPerRun(20, func() { d.quantiles() }); allocs != 0 {
		t.Fatalf("a five-leaf read allocates %v times, want 0", allocs)
	}
}
