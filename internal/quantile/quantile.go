// Package quantile provides a deterministic, mergeable streaming
// quantile sketch over non-negative int64 values: a log-linear
// histogram in the style of HdrHistogram (http://hdrhistogram.org/).
//
// Each power of two is split into 2^8 linear sub-buckets, so a
// bucket's width is at most 2^-8 of its lower edge, and every bucket
// holds an integer count. Values below 2^9 get buckets one wide and
// are stored exactly. The histogram keeps the exact minimum and
// maximum next to the counts, and its storage spans only the octaves
// between them.
//
// Counts are exact, so the bucket that holds a given rank is exact;
// only the value reported inside it is approximate. QuantileAtRank
// returns the exact minimum and maximum at ranks 1 and n, and any
// other rank's bucket midpoint clamped to [min, max], which lies
// within DefaultEpsilon of the exact nearest-rank value relative to
// it. Histograms add bucket-wise, so a merge in any order or
// association equals the histogram of the concatenated stream, bucket
// for bucket. Every operation is integer arithmetic, so a fixed input
// yields the same histogram on every platform and GOMAXPROCS setting
// (the sketch itself is not goroutine-safe).
package quantile

import (
	"fmt"
	"math/bits"
)

// subBits is the precision: each power of two holds 2^subBits linear
// sub-buckets.
const subBits = 8

// sub is the number of sub-buckets per power of two, and the unit in
// which storage grows.
const sub = 1 << subBits

// DefaultEpsilon is the value bound: a bucket's width is at most
// 2^-8 of its lower edge, so a reported percentile lies within 2^-8 of
// the exact nearest-rank value, relative to that value.
const DefaultEpsilon = 1.0 / sub

// Sketch is a log-linear histogram. New returns an empty one.
type Sketch struct {
	n        int64
	min, max int64
	// base is the bucket index of counts[0]. base and len(counts) are
	// multiples of sub, so storage covers whole octaves.
	base   int
	counts []int64
}

// New returns an empty histogram. eps is the value bound the caller
// needs; the precision is fixed, so New panics when eps is below
// DefaultEpsilon.
func New(eps float64) *Sketch {
	if !(eps >= DefaultEpsilon) {
		panic(fmt.Sprintf("quantile: epsilon %v below the value bound %v", eps, DefaultEpsilon))
	}
	return &Sketch{}
}

// bucket returns the index of v's bucket. Below 2^(subBits+1) it is v
// itself; above, each octave [2^k, 2^(k+1)) shifts v right until its
// top subBits+1 bits remain, and the shift picks the octave's block of
// sub indexes.
func bucket(v int64) int {
	shift := max(bits.Len64(uint64(v))-subBits-1, 0)
	return shift<<subBits + int(v>>shift)
}

// midpoint returns the middle value of bucket i.
func midpoint(i int) int64 {
	shift := max(i>>subBits-1, 0)
	lo := int64(i-shift<<subBits) << shift
	return lo + int64(1)<<shift>>1
}

// Count reports the number of values added.
func (s *Sketch) Count() int64 { return s.n }

// Add records one value. Latencies are never negative, and a negative
// value panics.
func (s *Sketch) Add(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("quantile: negative value %d", v))
	}
	i := bucket(v)
	if i < s.base || i >= s.base+len(s.counts) {
		s.cover(i, i+1)
	}
	s.counts[i-s.base]++
	if s.n == 0 || v < s.min {
		s.min = v
	}
	s.max = max(s.max, v)
	s.n++
}

// cover widens the storage to hold bucket indexes [lo, hi), rounded
// out to whole octaves.
func (s *Sketch) cover(lo, hi int) {
	if len(s.counts) == 0 {
		s.base = lo &^ (sub - 1)
	}
	end := s.base + len(s.counts)
	if lo >= s.base && hi <= end {
		return
	}
	lo = min(lo&^(sub-1), s.base)
	hi = max(hi+sub-1, end) &^ (sub - 1)
	counts := make([]int64, hi-lo)
	copy(counts[s.base-lo:], s.counts)
	s.base, s.counts = lo, counts
}

// QuantileAtRank returns the value at rank r (1-based, clamped to
// [1, n]) under the nearest-rank convention: the exact minimum at
// rank 1, the exact maximum at rank n, and otherwise the midpoint of
// the bucket holding rank r, clamped to [min, max]. An empty
// histogram returns 0.
func (s *Sketch) QuantileAtRank(r int64) int64 {
	switch {
	case s.n == 0:
		return 0
	case r <= 1:
		return s.min
	case r >= s.n:
		return s.max
	}
	var seen int64
	for i, c := range s.counts {
		if seen += c; seen >= r {
			return min(max(midpoint(s.base+i), s.min), s.max)
		}
	}
	return s.max
}

// Merged returns a new histogram (value bound eps, as for New) holding
// the bucket-wise sum of the given ones, which it leaves unchanged.
// The sum does not depend on the order of the arguments.
func Merged(eps float64, sketches ...*Sketch) *Sketch {
	out := New(eps)
	for _, s := range sketches {
		if s.n == 0 {
			continue
		}
		out.cover(s.base, s.base+len(s.counts))
		for i, c := range s.counts {
			out.counts[s.base-out.base+i] += c
		}
		if out.n == 0 || s.min < out.min {
			out.min = s.min
		}
		out.max = max(out.max, s.max)
		out.n += s.n
	}
	return out
}
