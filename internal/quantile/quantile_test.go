package quantile

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// withinBound reports whether got lies within DefaultEpsilon of the
// exact value want, relative to want.
func withinBound(got, want int64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return float64(d) <= float64(want)*DefaultEpsilon
}

// rankOf returns the nearest-rank position of quantile q in a stream
// of n values: ceil(q·n) clamped to [1, n].
func rankOf(q float64, n int64) int64 {
	return min(max(int64(math.Ceil(q*float64(n))), 1), n)
}

// sketchOf returns a histogram of vals.
func sketchOf(vals []int64) *Sketch {
	s := New(DefaultEpsilon)
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// sameHistogram reports whether two histograms hold the same count,
// extremes and buckets over the same storage.
func sameHistogram(a, b *Sketch) bool {
	return a.n == b.n && a.min == b.min && a.max == b.max && a.base == b.base && slices.Equal(a.counts, b.counts)
}

// checkStream verifies a histogram against the exact sorted stream on
// a probe grid of quantiles. The rank is exact: each answer lies in the
// bucket of the exact value at its rank. The value is approximate: it
// lies within DefaultEpsilon of that value.
func checkStream(t *testing.T, s *Sketch, values []int64, label string) {
	t.Helper()
	sorted := slices.Sorted(slices.Values(values))
	n := int64(len(sorted))
	if s.Count() != n {
		t.Fatalf("%s: count = %d, want %d", label, s.Count(), n)
	}
	for q := 0.0; q <= 1.0; q += 0.005 {
		r := rankOf(q, n)
		got, want := s.QuantileAtRank(r), sorted[r-1]
		if bucket(got) != bucket(want) {
			t.Fatalf("%s: rank %d of %d = %d, outside the bucket of the exact %d", label, r, n, got, want)
		}
		if !withinBound(got, want) {
			t.Fatalf("%s: rank %d of %d = %d, exact %d: off by more than %v", label, r, n, got, want, DefaultEpsilon)
		}
	}
}

// streams are the reference inputs the contract must hold on: random,
// pre-sorted both ways, constant, and bimodal — the adversarial shapes
// that break naive summaries — plus a latency-like log-normal stream
// around a second in nanoseconds.
func streams(n int) map[string][]int64 {
	rng := rand.New(rand.NewSource(42))
	random := make([]int64, n)
	for i := range random {
		random[i] = rng.Int63n(1 << 40)
	}
	asc := slices.Sorted(slices.Values(random))
	desc := slices.Clone(asc)
	slices.Reverse(desc)
	constant := make([]int64, n)
	for i := range constant {
		constant[i] = 7777
	}
	bimodal := make([]int64, n)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = 10 + rng.Int63n(5)
		} else {
			bimodal[i] = 1_000_000_000 + rng.Int63n(5)
		}
	}
	lognormal := make([]int64, n)
	for i := range lognormal {
		lognormal[i] = int64(math.Exp(rng.NormFloat64()) * 1e9)
	}
	return map[string][]int64{
		"random": random, "sorted-asc": asc, "sorted-desc": desc,
		"constant": constant, "bimodal": bimodal, "lognormal": lognormal,
	}
}

// TestRankErrorBoundedAcrossStreams pins the contract on every stream
// shape and size: the rank error is zero, since the counts are exact,
// and the value error is within DefaultEpsilon.
func TestRankErrorBoundedAcrossStreams(t *testing.T) {
	for _, n := range []int{1, 2, 10, 1000, 50000} {
		for name, vals := range streams(n) {
			checkStream(t, sketchOf(vals), vals, fmt.Sprintf("%s n=%d", name, n))
		}
	}
}

// TestSmallValuesExact pins that values below 2^9 sit in buckets one
// wide, so every rank of such a stream is answered exactly.
func TestSmallValuesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(2 * sub)
	}
	s := sketchOf(vals)
	sorted := slices.Sorted(slices.Values(vals))
	for r := int64(1); r <= int64(len(sorted)); r++ {
		if got := s.QuantileAtRank(r); got != sorted[r-1] {
			t.Fatalf("rank %d = %d, want exactly %d", r, got, sorted[r-1])
		}
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	for name, vals := range streams(10000) {
		s := sketchOf(vals)
		prev := int64(math.MinInt64)
		for q := 0.0; q <= 1.0; q += 0.005 {
			r := rankOf(q, s.Count())
			got := s.QuantileAtRank(r)
			if got < prev {
				t.Fatalf("%s: rank %d = %d below the previous rank's %d", name, r, got, prev)
			}
			prev = got
		}
	}
}

func TestQuantileExtremesExact(t *testing.T) {
	for name, vals := range streams(20000) {
		s := sketchOf(vals)
		lo, hi := slices.Min(vals), slices.Max(vals)
		n := s.Count()
		for _, r := range []int64{math.MinInt64, 0, 1} {
			if got := s.QuantileAtRank(r); got != lo {
				t.Fatalf("%s: rank %d = %d, want the exact minimum %d", name, r, got, lo)
			}
		}
		for _, r := range []int64{n, n + 1, math.MaxInt64} {
			if got := s.QuantileAtRank(r); got != hi {
				t.Fatalf("%s: rank %d = %d, want the exact maximum %d", name, r, got, hi)
			}
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	s := New(0.01)
	for _, r := range []int64{0, 1, 2} {
		if got := s.QuantileAtRank(r); got != 0 {
			t.Fatalf("empty rank %d = %d, want 0", r, got)
		}
	}
	if s.Count() != 0 {
		t.Fatalf("empty Count = %d", s.Count())
	}
	s.Add(123_456_789)
	for _, r := range []int64{0, 1, 2} {
		if got := s.QuantileAtRank(r); got != 123_456_789 {
			t.Fatalf("single-sample rank %d = %d, want 123456789", r, got)
		}
	}
}

// TestMergeOrderIndependent pins the merge contract: summing per-part
// histograms in any order and association — in order, reversed, a
// left fold and a shuffled pairing tree — yields the histogram of the
// concatenated stream, bucket for bucket, and leaves the parts as they
// were.
func TestMergeOrderIndependent(t *testing.T) {
	for name, vals := range streams(40000) {
		const parts = 8
		ps := make([]*Sketch, parts)
		for i := range ps {
			ps[i] = New(DefaultEpsilon)
		}
		for _, v := range vals {
			// Deal by octave, so the parts span different bucket
			// ranges and some stay empty.
			ps[bits.Len64(uint64(v))%parts].Add(v)
		}
		snap := make([][]int64, parts)
		for i, p := range ps {
			snap[i] = slices.Clone(p.counts)
		}
		reversed := slices.Clone(ps)
		slices.Reverse(reversed)
		rng := rand.New(rand.NewSource(7))
		tree := slices.Clone(ps)
		rng.Shuffle(len(tree), func(i, j int) { tree[i], tree[j] = tree[j], tree[i] })
		for len(tree) > 1 {
			var next []*Sketch
			for i := 0; i+1 < len(tree); i += 2 {
				next = append(next, Merged(DefaultEpsilon, tree[i], tree[i+1]))
			}
			if len(tree)%2 == 1 {
				next = append(next, tree[len(tree)-1])
			}
			tree = next
		}
		left := New(DefaultEpsilon)
		for _, p := range ps {
			left = Merged(DefaultEpsilon, left, p)
		}
		whole := sketchOf(vals)
		for shape, m := range map[string]*Sketch{
			"in order":  Merged(DefaultEpsilon, ps...),
			"reversed":  Merged(DefaultEpsilon, reversed...),
			"left fold": left,
			"pair tree": tree[0],
		} {
			if !sameHistogram(m, whole) {
				t.Fatalf("%s, %s: merged histogram differs from the histogram of the whole stream", name, shape)
			}
		}
		for i, p := range ps {
			if !slices.Equal(p.counts, snap[i]) {
				t.Fatalf("%s: merging changed part %d", name, i)
			}
		}
	}
}

// TestMerge64WayRankError pins the K-way reduction the sharded serving
// engine depends on: 64 per-shard histograms summed into one are the
// histogram of the whole stream, so the merged answers carry no rank
// error and the value bound of a single histogram, however many shards
// fold in.
func TestMerge64WayRankError(t *testing.T) {
	const shards = 64
	for name, vals := range streams(64_000) {
		parts := make([]*Sketch, shards)
		for i := range parts {
			parts[i] = New(DefaultEpsilon)
		}
		for i, v := range vals {
			parts[i%shards].Add(v)
		}
		s := Merged(DefaultEpsilon, parts...)
		if !sameHistogram(s, sketchOf(vals)) {
			t.Fatalf("%s: the 64-way merge differs from the histogram of the whole stream", name)
		}
		checkStream(t, s, vals, name)
	}
}

func TestMergeEmptySides(t *testing.T) {
	vals := streams(1000)["random"]
	full := sketchOf(vals)
	if m := Merged(DefaultEpsilon, New(DefaultEpsilon), full, New(DefaultEpsilon)); !sameHistogram(m, full) {
		t.Fatal("merging with empty histograms changed the sum")
	}
	if m := Merged(DefaultEpsilon, New(DefaultEpsilon), New(DefaultEpsilon)); m.Count() != 0 || m.QuantileAtRank(1) != 0 {
		t.Fatalf("merge of empty histograms: count %d, rank 1 = %d", m.Count(), m.QuantileAtRank(1))
	}
}

// TestNewRejectsEpsilonOutOfRange pins New's check: the precision is
// fixed, so a value bound tighter than DefaultEpsilon cannot be met.
func TestNewRejectsEpsilonOutOfRange(t *testing.T) {
	for _, eps := range []float64{DefaultEpsilon / 2, 0.001, 0, -0.5, math.NaN()} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "below the value bound") {
					t.Errorf("New(%v): recovered %v, want a below-bound panic", eps, r)
				}
			}()
			New(eps)
		}()
	}
	for _, eps := range []float64{DefaultEpsilon, 0.01, 1, 2} {
		New(eps)
	}
}

func TestAddRejectsNegative(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "negative value") {
			t.Errorf("Add(-1): recovered %v, want a negative-value panic", r)
		}
	}()
	New(DefaultEpsilon).Add(-1)
}

// TestDeterministicAcrossRuns checks that a fixed insertion sequence
// yields the same histogram twice.
func TestDeterministicAcrossRuns(t *testing.T) {
	vals := streams(20000)["random"]
	if !sameHistogram(sketchOf(vals), sketchOf(vals)) {
		t.Fatal("same insertion sequence produced different histograms")
	}
}

// TestStorageSpansSampleOctaves pins that a histogram stores whole
// octaves only between its extremes, however many values it holds: a
// million values within ten octaves hold at most eleven octaves of
// counts.
func TestStorageSpansSampleOctaves(t *testing.T) {
	s := New(DefaultEpsilon)
	rng := rand.New(rand.NewSource(1))
	for range 1_000_000 {
		s.Add(1<<40 + rng.Int63n(1<<50-1<<40))
	}
	if got := len(s.counts); got > 11*sub {
		t.Fatalf("values in [2^40, 2^50) hold %d buckets, want at most %d", got, 11*sub)
	}
}
