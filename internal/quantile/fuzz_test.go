package quantile

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzSketch drives the histogram with an arbitrary byte string decoded
// as a stream of non-negative int64 values (latencies are never
// negative) plus a shift selector that narrows them, and checks the
// package's whole contract against an exact sorted reference: the
// value bound at every probed rank, exact extremes, monotonicity in
// the rank, and that the merge of the even- and odd-position halves,
// in either order, equals the histogram of the whole stream bucket for
// bucket. CI runs it as a short -fuzztime smoke next to the property
// tests; the seed corpus covers the adversarial stream shapes.
func FuzzSketch(f *testing.F) {
	seed := func(shift byte, vals ...int64) []byte {
		b := make([]byte, 1+8*len(vals))
		b[0] = shift
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[1+8*i:], uint64(v))
		}
		return b
	}
	f.Add(seed(0, 5, 4, 3, 2, 1))
	f.Add(seed(0, 7, 7, 7, 7, 7, 7, 7, 7))
	f.Add(seed(0, 1, 1<<60, 2, 1<<60, 3, 1<<60))
	f.Add(seed(0, math.MaxInt64, 0, math.MaxInt64-1))
	f.Add(seed(40, 1<<62, 1<<61, 3<<60, 5<<59))
	f.Add([]byte{0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shift := data[0] % 64
		data = data[1:]
		var vals []int64
		for len(data) >= 8 && len(vals) < 1<<16 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data[:8])>>1>>shift))
			data = data[8:]
		}
		if len(vals) == 0 {
			return
		}
		whole := New(DefaultEpsilon)
		even, odd := New(DefaultEpsilon), New(DefaultEpsilon)
		for i, v := range vals {
			whole.Add(v)
			if i%2 == 0 {
				even.Add(v)
			} else {
				odd.Add(v)
			}
		}
		for _, m := range []*Sketch{Merged(DefaultEpsilon, even, odd), Merged(DefaultEpsilon, odd, even)} {
			if !sameHistogram(m, whole) {
				t.Fatalf("merged halves differ from the whole stream's histogram")
			}
		}

		sorted := slices.Sorted(slices.Values(vals))
		n := int64(len(sorted))
		if got := whole.QuantileAtRank(1); got != sorted[0] {
			t.Fatalf("rank 1 = %d, want the exact minimum %d", got, sorted[0])
		}
		if got := whole.QuantileAtRank(n); got != sorted[n-1] {
			t.Fatalf("rank n = %d, want the exact maximum %d", got, sorted[n-1])
		}
		prev := int64(math.MinInt64)
		step := max(n/64, 1)
		for r := int64(1); r <= n; r += step {
			got, want := whole.QuantileAtRank(r), sorted[r-1]
			if !withinBound(got, want) {
				t.Fatalf("rank %d of %d = %d, exact %d: off by more than %v", r, n, got, want, DefaultEpsilon)
			}
			if got < prev {
				t.Fatalf("rank %d = %d below an earlier rank's %d", r, got, prev)
			}
			prev = got
		}
	})
}
