package quantile

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// rankError measures how far the reported value x sits from target
// rank r (1-based) in the exact sorted reference, in ranks. A value
// occupying ranks [lo+1, hi] (lo values strictly below, hi values at
// or below) has error 0 when r falls inside that interval.
func rankError(sorted []int64, x int64, r int64) int64 {
	lo := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x }))
	hi := int64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > x }))
	switch {
	case r <= lo:
		return lo + 1 - r
	case r > hi:
		return r - hi
	}
	return 0
}

// checkStream verifies the rank-error guarantee of a sketch against
// the exact sorted stream for a probe grid of quantiles, returning the
// worst offender.
func checkStream(t *testing.T, s *Sketch, values []int64, label string) {
	t.Helper()
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := int64(len(sorted))
	if s.Count() != n {
		t.Fatalf("%s: count = %d, want %d", label, s.Count(), n)
	}
	// +2 absorbs the ceil rounding on both the target rank and the
	// margin; the guarantee itself is eps·n.
	tol := int64(math.Ceil(s.ErrorBound()*float64(n))) + 2
	worstQ, worst := 0.0, int64(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		r := int64(math.Ceil(q * float64(n)))
		if r < 1 {
			r = 1
		}
		got := s.Quantile(q)
		if err := rankError(sorted, got, r); err > worst {
			worst, worstQ = err, q
		}
	}
	if worst > tol {
		t.Fatalf("%s: worst rank error %d at q=%.2f exceeds tolerance %d (eps=%v, n=%d)",
			label, worst, worstQ, tol, s.ErrorBound(), n)
	}
}

// streams are the reference inputs the rank-error property must hold
// on: random, pre-sorted both ways, constant, and bimodal — the
// adversarial shapes that break naive summaries.
func streams(n int) map[string][]int64 {
	rng := rand.New(rand.NewSource(42))
	random := make([]int64, n)
	for i := range random {
		random[i] = rng.Int63n(1 << 40)
	}
	asc := append([]int64(nil), random...)
	sort.Slice(asc, func(i, j int) bool { return asc[i] < asc[j] })
	desc := make([]int64, n)
	for i := range desc {
		desc[i] = asc[n-1-i]
	}
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
	return map[string][]int64{
		"random": random, "sorted-asc": asc, "sorted-desc": desc,
		"constant": constant, "bimodal": bimodal,
	}
}

func TestRankErrorBoundedAcrossStreams(t *testing.T) {
	for _, n := range []int{1, 2, 10, 1000, 50000} {
		for _, eps := range []float64{0.01, DefaultEpsilon} {
			for name, vals := range streams(n) {
				s := New(eps)
				for _, v := range vals {
					s.Add(v)
				}
				checkStream(t, s, vals, name)
			}
		}
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	for name, vals := range streams(10000) {
		s := New(0.005)
		for _, v := range vals {
			s.Add(v)
		}
		prev := int64(math.MinInt64)
		for q := 0.0; q <= 1.0; q += 0.005 {
			got := s.Quantile(q)
			if got < prev {
				t.Fatalf("%s: Quantile(%.3f) = %d below previous %d", name, q, got, prev)
			}
			prev = got
		}
	}
}

func TestQuantileExtremesExact(t *testing.T) {
	vals := streams(20000)["random"]
	s := New(DefaultEpsilon)
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		s.Add(v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// GK keeps the head and tail tuples unmerged with delta 0, so the
	// stream extremes are exact, not approximate.
	if got := s.Quantile(0); got != lo {
		t.Fatalf("Quantile(0) = %d, want exact min %d", got, lo)
	}
	if got := s.Quantile(1); got != hi {
		t.Fatalf("Quantile(1) = %d, want exact max %d", got, hi)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	s := New(0.01)
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile = %d, want 0", got)
	}
	if s.Count() != 0 {
		t.Fatalf("empty Count = %d", s.Count())
	}
	s.Add(99)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 99 {
			t.Fatalf("single-sample Quantile(%v) = %d, want 99", q, got)
		}
	}
}

func TestMergeOrderIndependent(t *testing.T) {
	vals := streams(40000)["random"]
	const parts = 8
	build := func() []*Sketch {
		out := make([]*Sketch, parts)
		for i := range out {
			out[i] = New(0.002)
		}
		for i, v := range vals {
			out[i%parts].Add(v)
		}
		return out
	}
	// Three merge shapes: left fold, right fold, and a shuffled pairing
	// tree. Each must answer within its own tracked error bound.
	leftFold := func() *Sketch {
		ss := build()
		acc := ss[0]
		for _, s := range ss[1:] {
			acc.Merge(s)
		}
		return acc
	}
	rightFold := func() *Sketch {
		ss := build()
		acc := ss[parts-1]
		for i := parts - 2; i >= 0; i-- {
			acc.Merge(ss[i])
		}
		return acc
	}
	shuffled := func() *Sketch {
		ss := build()
		rng := rand.New(rand.NewSource(7))
		rng.Shuffle(len(ss), func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
		for len(ss) > 1 {
			var next []*Sketch
			for i := 0; i+1 < len(ss); i += 2 {
				ss[i].Merge(ss[i+1])
				next = append(next, ss[i])
			}
			if len(ss)%2 == 1 {
				next = append(next, ss[len(ss)-1])
			}
			ss = next
		}
		return ss[0]
	}
	for name, merge := range map[string]func() *Sketch{
		"left-fold": leftFold, "right-fold": rightFold, "pair-tree": shuffled,
	} {
		checkStream(t, merge(), vals, name)
	}
}

// TestMerge64WayRankError pins the K-way reduction the sharded
// serving engine depends on: folding 64 per-shard sketches into one
// accumulator must keep the advertised bound at the shard epsilon
// (not 64·eps — Merge keeps eps = max because delta inflation
// preserves g+delta <= 2·eps·n over the combined count), and the
// answers must stay within eps·n+1 ranks of the exact merged stream.
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
		if got := s.ErrorBound(); got != DefaultEpsilon {
			t.Fatalf("%s: 64-way merge grew ErrorBound to %v, want %v", name, got, DefaultEpsilon)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		n := int64(len(sorted))
		if s.Count() != n {
			t.Fatalf("%s: count = %d, want %d", name, s.Count(), n)
		}
		tol := int64(DefaultEpsilon*float64(n)) + 1
		for q := 0.0; q <= 1.0; q += 0.005 {
			r := int64(math.Ceil(q * float64(n)))
			if r < 1 {
				r = 1
			}
			got := s.Quantile(q)
			if err := rankError(sorted, got, r); err > tol {
				t.Fatalf("%s: rank error %d at q=%.3f exceeds eps·n+1 = %d", name, err, q, tol)
			}
		}
	}
}

func TestMergeEmptySides(t *testing.T) {
	vals := streams(1000)["random"]
	full := New(0.01)
	for _, v := range vals {
		full.Add(v)
	}
	intoEmpty := New(0.01)
	intoEmpty.Merge(full)
	checkStream(t, intoEmpty, vals, "merge-into-empty")
	full.Merge(New(0.01))
	checkStream(t, full, vals, "merge-with-empty")
}

// TestNewRejectsEpsilonOutOfRange pins New's range check: an epsilon
// below the floor would size the insert buffer at 1/(2·eps) values,
// 4 GB at 1e-9.
func TestNewRejectsEpsilonOutOfRange(t *testing.T) {
	for _, eps := range []float64{2, 1, 0, -0.5, 1e-9, math.NaN()} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "out of [1e-06, 1)") {
					t.Errorf("New(%v): recovered %v, want an out-of-range panic", eps, r)
				}
			}()
			New(eps)
		}()
	}
}

// TestDeterministicAcrossRuns checks that a fixed insertion sequence
// yields the same summary state twice: epsilon, count and tuple list.
func TestDeterministicAcrossRuns(t *testing.T) {
	vals := streams(20000)["random"]
	run := func() *Sketch {
		s := New(DefaultEpsilon)
		for _, v := range vals {
			s.Add(v)
		}
		s.flush()
		return s
	}
	a, b := run(), run()
	if a.eps != b.eps || a.n != b.n || !slices.Equal(a.tuples, b.tuples) {
		t.Fatal("same insertion sequence produced different sketch state")
	}
}

func TestTupleCountSublinear(t *testing.T) {
	s := New(DefaultEpsilon)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		s.Add(rng.Int63n(1 << 50))
	}
	// 1M values at eps=0.001: the summary must stay thousands of
	// tuples, not grow with n — the O(1)-memory claim of the serving
	// campaigns. The theoretical bound is (1/2eps)·log2(2eps·n) ≈ 5.5k.
	if got := s.TupleCount(); got > 20000 {
		t.Fatalf("1M inserts left %d tuples; summary is not sublinear", got)
	}
}
