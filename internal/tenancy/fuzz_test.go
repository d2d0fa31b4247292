package tenancy

import (
	"encoding/binary"
	"testing"
	"time"
)

// FuzzStream drives the merged-stream generator with fuzzer-chosen
// cohort counts, fractions, processes, CVs and seeds, and checks the
// invariants every realization must hold: monotone non-decreasing
// merged timestamps inside the horizon and in-range cohort/app
// indices. The shard deal over the stream lives in the serving engine
// and is pinned there (exper's TestArrivalDealExact).
func FuzzStream(f *testing.F) {
	seed := func(vals ...uint64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		return b
	}
	f.Add(seed(2, 2021, 3, 50, 1, 200))
	f.Add(seed(3, 7, 0, 0, 2, 30, 1, 400))
	f.Add(seed(1, 1<<40, 2, 10))
	f.Add([]byte{0})

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 {
			if len(data) < 8 {
				return 0
			}
			v := binary.LittleEndian.Uint64(data[:8])
			data = data[8:]
			return v
		}
		n := int(next()%4) + 1
		rngSeed := int64(next())
		spec := &Spec{}
		for i := range n {
			c := Cohort{ID: string(rune('a' + i)), RateFraction: 1 / float64(n), Class: ClassBatch}
			switch next() % 3 {
			case 1:
				c.Arrival = ArrivalSpec{Process: ProcessGamma, CV: 0.25 + float64(next()%16)/4}
			case 2:
				c.Arrival = ArrivalSpec{Process: ProcessWeibull, CV: 0.25 + float64(next()%16)/4}
			}
			if next()%2 == 1 {
				c.Arrival.Schedule = []Window{
					{Duration: Duration(time.Second), Factor: 3},
					{Duration: Duration(2 * time.Second), Factor: 0.5},
				}
			}
			spec.Cohorts = append(spec.Cohorts, c)
		}
		// Rounding the fractions must not trip validation.
		spec.Cohorts[n-1].RateFraction = 1
		for i := 0; i < n-1; i++ {
			spec.Cohorts[n-1].RateFraction -= spec.Cohorts[i].RateFraction
		}
		if spec.Cohorts[n-1].RateFraction <= 0 {
			return
		}
		cfg := StreamConfig{
			Spec: spec, RatePerSec: 100 + float64(next()%400),
			Horizon: 5 * time.Second, Seed: rngSeed, PoolSize: 3,
		}
		s, err := NewStream(cfg)
		if err != nil {
			t.Fatalf("NewStream: %v", err)
		}
		var whole []Arrival
		var prev time.Duration
		for {
			a, ok := s.Next()
			if !ok {
				break
			}
			if a.At < prev {
				t.Fatalf("arrival %d at %v before predecessor %v", len(whole), a.At, prev)
			}
			prev = a.At
			if a.At < 0 || a.At >= cfg.Horizon {
				t.Fatalf("arrival at %v outside [0, %v)", a.At, cfg.Horizon)
			}
			if a.Cohort < 0 || a.Cohort >= n {
				t.Fatalf("cohort %d out of range", a.Cohort)
			}
			if a.App < 0 || a.App >= cfg.PoolSize {
				t.Fatalf("pool index %d out of range", a.App)
			}
			whole = append(whole, a)
			if len(whole) > 1<<16 {
				t.Fatal("runaway stream")
			}
		}
	})
}
