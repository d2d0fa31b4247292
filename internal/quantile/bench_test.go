package quantile

import (
	"math/rand"
	"testing"
)

// Sinks for the benchmarks' results, so the compiler keeps the calls.
var (
	benchValue  int64
	benchSketch *Sketch
)

// BenchmarkQuantileAdd measures the per-sample insertion cost, the
// hot path every sketch-mode serving request takes once: a bucket
// index, an increment and the extremes.
func BenchmarkQuantileAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1<<16)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	s := New(DefaultEpsilon)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&(1<<16-1)])
	}
	b.ReportMetric(float64(len(s.counts)), "buckets")
}

// BenchmarkQuantileQuery measures a percentile query against a
// histogram holding a million samples: a walk over its buckets.
func BenchmarkQuantileQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := New(DefaultEpsilon)
	for i := 0; i < 1_000_000; i++ {
		s.Add(rng.Int63())
	}
	r := s.Count() * 99 / 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchValue = s.QuantileAtRank(r)
	}
}

// BenchmarkQuantileMerge measures summing two 100k-sample histograms
// into a new one.
func BenchmarkQuantileMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func() *Sketch {
		s := New(DefaultEpsilon)
		for i := 0; i < 100_000; i++ {
			s.Add(rng.Int63())
		}
		return s
	}
	left, right := mk(), mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSketch = Merged(DefaultEpsilon, left, right)
	}
}

// BenchmarkQuantileMergeK measures a 64-way sum, 64 histograms of
// ~16k samples each into one: the shape of a sharded cell's read.
func BenchmarkQuantileMergeK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const shards = 64
	parts := make([]*Sketch, shards)
	for i := range parts {
		parts[i] = New(DefaultEpsilon)
		for j := 0; j < 16_384; j++ {
			parts[i].Add(rng.Int63())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSketch = Merged(DefaultEpsilon, parts...)
	}
}
