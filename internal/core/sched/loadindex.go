package sched

import (
	"fmt"
	"math/bits"
)

// LoadIndex is an incremental least/most-loaded index over a fixed
// fleet of positions 0..n-1 (fleet order). It buckets positions by
// integer load, one bitset per load level, and tracks the lowest and
// highest non-empty levels, so a load change costs O(|delta|) — O(1)
// for the ±1 steps of a process entering or leaving a run queue — and
// a pick walks levels from the extreme inward instead of scanning the
// fleet.
//
// Picks implement the placement tie rule: among the positions a filter
// accepts, the extreme load wins and ties go to the position earlier in
// fleet order. With every position accepted a pick costs O(⌈n/64⌉)
// word reads; each rejected position costs one more filter call.
//
// The zero value is unusable; build one with NewLoadIndex. A LoadIndex
// is not safe for concurrent use.
type LoadIndex struct {
	load []int
	// words is the bitset width of one level, ⌈n/64⌉.
	words int
	// levels holds the per-level bitsets back to back: level l
	// occupies levels[l*words : (l+1)*words].
	levels []uint64
	// count is the number of positions at each level.
	count []int
	// lo and hi are the lowest and highest non-empty levels.
	lo, hi int
}

// NewLoadIndex returns an index over n positions, all at load zero.
func NewLoadIndex(n int) *LoadIndex {
	if n < 0 {
		panic(fmt.Sprintf("sched: negative LoadIndex size %d", n))
	}
	x := &LoadIndex{load: make([]int, n), words: (n + 63) / 64}
	x.grow(0)
	for pos := 0; pos < n; pos++ {
		x.levels[pos/64] |= 1 << (pos % 64)
	}
	x.count[0] = n
	return x
}

// Load reports the load of one position.
func (x *LoadIndex) Load(pos int) int { return x.load[pos] }

// grow makes level l addressable.
func (x *LoadIndex) grow(l int) {
	for len(x.count) <= l {
		x.count = append(x.count, 0)
		for w := 0; w < x.words; w++ {
			x.levels = append(x.levels, 0)
		}
	}
}

// Add moves pos by delta load units. A load may not go negative.
func (x *LoadIndex) Add(pos, delta int) {
	from := x.load[pos]
	to := from + delta
	if to < 0 {
		panic(fmt.Sprintf("sched: LoadIndex position %d load %d%+d goes negative", pos, from, delta))
	}
	x.grow(to)
	w, bit := pos/64, uint64(1)<<(pos%64)
	x.levels[from*x.words+w] &^= bit
	x.levels[to*x.words+w] |= bit
	x.count[from]--
	x.count[to]++
	x.load[pos] = to
	// The moved position now sits at to, so each walk below stops
	// there at the latest: O(|delta|).
	if to < x.lo {
		x.lo = to
	}
	for x.count[x.lo] == 0 {
		x.lo++
	}
	if to > x.hi {
		x.hi = to
	}
	for x.count[x.hi] == 0 {
		x.hi--
	}
}

// Least returns the least-loaded position that ok accepts, ties toward
// fleet order; ok=false when it accepts none. A nil ok accepts every
// position.
func (x *LoadIndex) Least(ok func(pos int) bool) (int, bool) {
	for l := x.lo; l <= x.hi; l++ {
		if pos, found := x.first(l, ok); found {
			return pos, true
		}
	}
	return 0, false
}

// Most returns the most-loaded position that ok accepts, ties toward
// fleet order; ok=false when it accepts none. A nil ok accepts every
// position.
func (x *LoadIndex) Most(ok func(pos int) bool) (int, bool) {
	for l := x.hi; l >= x.lo; l-- {
		if pos, found := x.first(l, ok); found {
			return pos, true
		}
	}
	return 0, false
}

// first returns the earliest position at level l that ok accepts.
func (x *LoadIndex) first(l int, ok func(pos int) bool) (int, bool) {
	if x.count[l] == 0 {
		return 0, false
	}
	row := x.levels[l*x.words : (l+1)*x.words]
	for w, word := range row {
		for word != 0 {
			pos := w*64 + bits.TrailingZeros64(word)
			if ok == nil || ok(pos) {
				return pos, true
			}
			word &= word - 1
		}
	}
	return 0, false
}
