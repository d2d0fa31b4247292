// Package quantile provides a deterministic, merge-able streaming
// quantile sketch over int64 values — the Greenwald-Khanna (GK)
// summary ("Space-Efficient Online Computation of Quantile Summaries",
// SIGMOD 2001) with buffered batch insertion.
//
// The sketch answers rank queries with a guaranteed rank error: for a
// stream of n values, Quantile(q) returns a value of the stream whose
// rank is within ErrorBound()·n (+1) of ceil(q·n). Memory is
// O((1/ε)·log(εn)) tuples — independent of n for practical purposes —
// which is what lets a million-request serving cell report percentiles
// without retaining a per-request latency slice.
//
// Determinism is part of the contract: every operation is integer math
// plus one float64 multiply for the compression threshold, so a fixed
// insertion sequence yields a bit-identical sketch on every platform
// and GOMAXPROCS setting (the sketch itself is not goroutine-safe; the
// campaign layer shards one sketch per cell).
package quantile

import (
	"fmt"
	"math"
	"slices"
)

// DefaultEpsilon is the rank-error target the serving campaigns use:
// 0.1% of the stream, an order of magnitude inside the 1% differential
// tolerance the exactness tests pin.
const DefaultEpsilon = 0.001

// tuple is one GK summary entry: a stream value v covering g ranks,
// with delta bounding the uncertainty of its position — the value's
// true rank lies in [rmin, rmin+delta] where rmin is the running sum
// of g up to and including the tuple.
type tuple struct {
	v     int64
	g     int64
	delta int64
}

// Sketch is a GK quantile summary. The zero value is not usable; call
// New.
type Sketch struct {
	eps    float64
	n      int64
	tuples []tuple
	// buf batches pending inserts: Add is O(1) amortised because a
	// full buffer is sorted once and merged into the tuple list in a
	// single pass, instead of one binary-search-and-memmove per value.
	buf []int64
	// scratch is the spare tuple list flush and Merge build into; the
	// lists swap afterwards, so steady-state rebuilds allocate nothing.
	// K-way shard reduction folds dozens of sketches into one
	// accumulator, which without the swap paid one full-summary
	// allocation per merge.
	scratch []tuple
}

// minEpsilon is the smallest rank-error target a sketch takes. The
// insert buffer holds 1/(2·eps) values, so the floor bounds it at 4 MB.
const minEpsilon = 1e-6

// New returns an empty sketch targeting the given rank-error fraction
// (1e-6 <= eps < 1). Smaller eps means more tuples:
// ~(1/2eps)·log2(2eps·n).
func New(eps float64) *Sketch {
	if !(eps >= minEpsilon && eps < 1) {
		panic(fmt.Sprintf("quantile: epsilon %v out of [%v, 1)", eps, minEpsilon))
	}
	return &Sketch{eps: eps, buf: make([]int64, 0, max(int(1/(2*eps)), 16))}
}

// ErrorBound reports the sketch's guaranteed rank-error fraction: the
// construction epsilon, or after a Merge the larger of the operands'
// bounds.
func (s *Sketch) ErrorBound() float64 { return s.eps }

// Count reports the number of values added.
func (s *Sketch) Count() int64 { return s.n + int64(len(s.buf)) }

// Add records one value.
func (s *Sketch) Add(v int64) {
	s.buf = append(s.buf, v)
	if len(s.buf) == cap(s.buf) {
		s.flush()
	}
}

// threshold is the GK compression bound floor(2·eps·n): adjacent
// tuples merge while their combined coverage stays under it, and a
// fresh interior insert takes delta = threshold-1.
func (s *Sketch) threshold() int64 {
	return int64(2 * s.eps * float64(s.n))
}

// flush drains the insert buffer into the tuple list: sort the batch,
// merge it into the (sorted) tuples in one pass, then compress. n and
// the insertion delta advance per element, so the result is identical
// to inserting the batch one value at a time.
func (s *Sketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	slices.Sort(s.buf)
	merged := s.grow(len(s.tuples) + len(s.buf))
	ti := 0
	for _, v := range s.buf {
		// Values equal to an existing tuple insert after it, matching
		// single-value GK insertion at the first greater tuple.
		for ti < len(s.tuples) && s.tuples[ti].v <= v {
			merged = append(merged, s.tuples[ti])
			ti++
		}
		s.n++
		var delta int64
		if len(merged) > 0 && ti < len(s.tuples) {
			// Interior insert; head and tail inserts keep delta 0 so
			// the summary's extremes stay exact.
			if delta = s.threshold() - 1; delta < 0 {
				delta = 0
			}
		}
		merged = append(merged, tuple{v: v, g: 1, delta: delta})
	}
	merged = append(merged, s.tuples[ti:]...)
	s.scratch, s.tuples = s.tuples[:0], merged
	s.buf = s.buf[:0]
	s.compress()
}

// grow returns the scratch list, reallocated if it cannot hold want
// tuples, ready to be appended into and swapped with s.tuples.
func (s *Sketch) grow(want int) []tuple {
	if cap(s.scratch) < want {
		s.scratch = make([]tuple, 0, want)
	}
	return s.scratch[:0]
}

// compress merges adjacent tuples whose combined rank coverage stays
// within the GK bound, scanning right to left so a chain of light
// tuples collapses in one pass. The first and last tuples are kept:
// the summary always answers the exact minimum and maximum.
func (s *Sketch) compress() {
	t := s.threshold() - 1
	if t < 1 {
		return
	}
	out := s.tuples
	w := len(out) - 1
	for i := len(out) - 2; i >= 1; i-- {
		if out[i].g+out[w].g+out[w].delta <= t {
			out[w].g += out[i].g
		} else {
			w--
			out[w] = out[i]
		}
	}
	if w >= 1 {
		// out[0] survives compression unconditionally. Survivors are
		// copied to the front rather than resliced off it, so the
		// backing array keeps its full capacity for the scratch swap —
		// a suffix reslice here leaked front capacity and made every
		// Merge in a K-way fold reallocate.
		out[w-1] = out[0]
		s.tuples = out[:copy(out, out[w-1:])]
	}
}

// Quantile returns a stream value at quantile q in [0, 1], under the
// nearest-rank convention the serving reports use: the target rank is
// ceil(q·n) clamped to [1, n]. The returned value's true rank is
// within ErrorBound()·n (+1) of the target. An empty sketch returns 0.
func (s *Sketch) Quantile(q float64) int64 {
	s.flush()
	if s.n == 0 {
		return 0
	}
	r := int64(math.Ceil(q * float64(s.n)))
	return s.QuantileAtRank(r)
}

// QuantileAtRank returns a stream value whose rank is within the error
// bound of rank r (1-based, clamped to [1, n]). It lets callers apply
// their own rank convention — the serving layer's nearest-rank
// percentiles use ceil(pct·n/100).
func (s *Sketch) QuantileAtRank(r int64) int64 {
	s.flush()
	if s.n == 0 {
		return 0
	}
	if r < 1 {
		r = 1
	}
	if r > s.n {
		r = s.n
	}
	// The extremes are exact: the head and tail tuples are never
	// merged away, so rank 1 is the stream minimum and rank n the
	// maximum.
	if r == 1 {
		return s.tuples[0].v
	}
	if r == s.n {
		return s.tuples[len(s.tuples)-1].v
	}
	// Textbook GK query: return the predecessor of the first tuple
	// whose rmax overshoots r by more than the margin. The overshoot
	// index is nondecreasing in r, so quantile answers are monotone in
	// q by construction; the compression invariant max(g+delta) <=
	// 2·eps·n bounds the rank error by eps·n (+1 from the floor) on
	// both sides. The margin floors rather than ceils eps·n: with a
	// ceiled margin an exact summary (every tuple a singleton, as for
	// any stream shorter than 1/(2·eps)) would answer rank r+1 for
	// rank r — floored, exact summaries answer exactly.
	margin := int64(s.eps * float64(s.n))
	var rmin int64
	for i, t := range s.tuples {
		rmin += t.g
		if rmin+t.delta > r+margin {
			if i == 0 {
				return t.v
			}
			return s.tuples[i-1].v
		}
	}
	return s.tuples[len(s.tuples)-1].v
}

// Merge folds other into s. The merged summary covers both streams
// and keeps the larger of the operands' error bounds: each side
// satisfies g+delta <= 2·eps·n over its own count, and the
// delta-inflation below adds at most the other side's local
// uncertainty, so every merged tuple satisfies the invariant over the
// combined count with eps = max — the bound does not decay however
// many shard sketches fold into one accumulator, which the 64-way
// merge property test pins. Merging in any order or association
// yields answers within the merged bound. other is flushed but
// otherwise unchanged.
func (s *Sketch) Merge(other *Sketch) {
	s.flush()
	other.flush()
	if other.n == 0 {
		return
	}
	s.eps = math.Max(s.eps, other.eps)
	if s.n == 0 {
		s.n = other.n
		s.tuples = append(s.tuples[:0], other.tuples...)
		return
	}
	// Merge-sort the tuple lists, inflating each emitted tuple's delta
	// by the other side's local rank uncertainty (the g+delta-1 of its
	// next unconsumed tuple): the other stream may hide that much mass
	// between this value and its merged successor. Without the
	// inflation the merged intervals understate rmax and queries
	// exceed the advertised bound — the failure mode SPARK-21184
	// documents for the naive concatenation merge.
	merged := s.grow(len(s.tuples) + len(other.tuples))
	i, j := 0, 0
	for i < len(s.tuples) && j < len(other.tuples) {
		var t, next tuple
		if s.tuples[i].v <= other.tuples[j].v {
			t, next = s.tuples[i], other.tuples[j]
			i++
		} else {
			t, next = other.tuples[j], s.tuples[i]
			j++
		}
		t.delta += next.g + next.delta - 1
		merged = append(merged, t)
	}
	merged = append(merged, s.tuples[i:]...)
	merged = append(merged, other.tuples[j:]...)
	s.scratch, s.tuples = s.tuples[:0], merged
	s.n += other.n
	s.compress()
}

// Reset empties the sketch for reuse, keeping its current error bound
// and the allocated tuple and buffer capacity — accumulators in merge
// loops reset instead of reallocating.
func (s *Sketch) Reset() {
	s.n = 0
	s.tuples = s.tuples[:0]
	s.buf = s.buf[:0]
}

// Merged folds the sketches into a fresh summary with error target
// eps, merging in argument order — the K-way reduction the sharded
// serving engine uses to combine per-shard latency sketches. The
// result's bound is max(eps, inputs' bounds); the inputs are flushed
// but otherwise unchanged.
func Merged(eps float64, sketches ...*Sketch) *Sketch {
	out := New(eps)
	for _, sk := range sketches {
		out.Merge(sk)
	}
	return out
}

// TupleCount reports the current summary size (after flushing pending
// inserts) — the memory the sketch actually holds, which the
// O(1)-memory campaign assertions bound.
func (s *Sketch) TupleCount() int {
	s.flush()
	return len(s.tuples)
}
