package quantile

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzSketch drives the sketch with an arbitrary byte string decoded
// as an int64 value stream plus an epsilon selector, and checks the
// package's whole contract against an exact sorted reference: bounded
// rank error, quantile monotonicity in q and split-and-merge
// equivalence. CI runs it as a short -fuzztime smoke next to the
// regular property tests; the seed corpus covers the adversarial
// stream shapes.
func FuzzSketch(f *testing.F) {
	seed := func(vals ...int64) []byte {
		b := make([]byte, 1+8*len(vals))
		b[0] = 1
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[1+8*i:], uint64(v))
		}
		return b
	}
	f.Add(seed(5, 4, 3, 2, 1))
	f.Add(seed(7, 7, 7, 7, 7, 7, 7, 7))
	f.Add(seed(1, 1<<60, 2, 1<<60, 3, 1<<60))
	f.Add(seed(math.MinInt64, math.MaxInt64, 0))
	f.Add([]byte{0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		eps := []float64{0.1, 0.01, DefaultEpsilon}[int(data[0])%3]
		data = data[1:]
		var vals []int64
		for len(data) >= 8 && len(vals) < 1<<16 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		if len(vals) == 0 {
			return
		}
		whole := New(eps)
		left, right := New(eps), New(eps)
		for i, v := range vals {
			whole.Add(v)
			if i%2 == 0 {
				left.Add(v)
			} else {
				right.Add(v)
			}
		}
		left.Merge(right)

		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		n := int64(len(sorted))
		check := func(s *Sketch, label string) {
			tol := int64(math.Ceil(s.ErrorBound()*float64(n))) + 2
			prev := int64(math.MinInt64)
			for q := 0.0; q <= 1.0; q += 0.05 {
				got := s.Quantile(q)
				if got < prev {
					t.Fatalf("%s: Quantile(%.2f)=%d below previous %d", label, q, got, prev)
				}
				prev = got
				r := int64(math.Ceil(q * float64(n)))
				if r < 1 {
					r = 1
				}
				if err := rankError(sorted, got, r); err > tol {
					t.Fatalf("%s: rank error %d at q=%.2f exceeds %d (eps=%v n=%d)",
						label, err, q, tol, s.ErrorBound(), n)
				}
			}
		}
		check(whole, "whole")
		check(left, "merged")
	})
}
