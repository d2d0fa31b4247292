package exper

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/elastic"
	"xartrek/internal/tenancy"
	"xartrek/internal/workloads"
)

// arrivalPool is a small application pool for stream-level tests; the
// names match testWorkload's mixes.
var arrivalPool = []*workloads.App{{Name: "FaceDet320"}, {Name: "Digit500"}, {Name: "CG-A"}}

// refPoisson is the pre-draw loop exact mode used before it shared the
// lazy source: per arrival a gap, then an application, until the first
// gap past the horizon.
func refPoisson(cfg ServingConfig, pool []*workloads.App) []arrival {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []arrival
	var t time.Duration
	for {
		gap := rng.ExpFloat64() / cfg.RatePerSec
		t += time.Duration(gap * float64(time.Second))
		if t >= cfg.Duration {
			return out
		}
		i := rng.Intn(len(pool))
		out = append(out, arrival{at: t, app: pool[i], pick: i})
	}
}

// refTrace is the trace walk that pre-drew a trace-driven run: one
// application draw per in-horizon offset in trace order, then a stable
// time sort.
func refTrace(cfg ServingConfig, pool []*workloads.App) []arrival {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []arrival
	for _, at := range cfg.Trace {
		if at >= cfg.Duration {
			continue
		}
		i := rng.Intn(len(pool))
		out = append(out, arrival{at: at, app: pool[i], pick: i})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// refCohort walks the tenancy merged stream directly.
func refCohort(t *testing.T, cfg ServingConfig, ten *tenantRun) []arrival {
	t.Helper()
	st, err := tenancy.NewStream(tenancy.StreamConfig{
		Spec: cfg.Workload, RatePerSec: cfg.RatePerSec, Horizon: cfg.Duration,
		Seed: cfg.Seed, PoolSize: len(arrivalPool),
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []arrival
	for a, ok := st.Next(); ok; a, ok = st.Next() {
		out = append(out, arrival{at: a.At, app: ten.apps[a.Cohort][a.App], cohort: a.Cohort, pick: a.App})
	}
	return out
}

// buildSource builds cfg's arrival stream over arrivalPool, with the
// tenancy state a workload needs.
func buildSource(cfg ServingConfig) (*arrivalStream, error) {
	var ten *tenantRun
	if cfg.Workload.Enabled() {
		var err error
		if ten, err = newTenantRun(&cfg, arrivalPool); err != nil {
			return nil, err
		}
	}
	return cfg.source(arrivalPool, ten)
}

// drain reads a config's whole arrival stream through the source,
// checking the batch contract on the way: instants strictly increase,
// every batch is non-empty and shares its instant, and offered counts
// every yielded request.
func drain(t *testing.T, cfg ServingConfig) []arrival {
	t.Helper()
	src, err := buildSource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []arrival
	prev := time.Duration(-1)
	for {
		at, batch, ok := src.next()
		if !ok {
			break
		}
		if at <= prev || len(batch) == 0 {
			t.Fatalf("instant %v after %v with %d arrivals", at, prev, len(batch))
		}
		for _, a := range batch {
			if a.at != at {
				t.Fatalf("arrival at %v in the batch of instant %v", a.at, at)
			}
		}
		out = append(out, batch...)
		prev = at
	}
	if src.offered != len(out) {
		t.Fatalf("offered %d, yielded %d", src.offered, len(out))
	}
	return out
}

func sameArrivals(t *testing.T, what string, got, want []arrival) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrivals, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: arrival %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// unsortedTrace has out-of-order offsets, same-instant runs and
// past-horizon entries (horizon 5 s).
var unsortedTrace = []time.Duration{
	3 * time.Second, time.Second, time.Second, 10 * time.Second, 0,
	3 * time.Second, 2 * time.Second, time.Second, 12 * time.Second,
	2 * time.Second, 4999 * time.Millisecond, 5 * time.Second,
}

// arrivalKinds is one config per stream kind.
func arrivalKinds() map[string]ServingConfig {
	sorted := make([]time.Duration, 300)
	for i := range sorted {
		// Runs of three same-instant arrivals every 20 ms.
		sorted[i] = time.Duration(i/3) * 20 * time.Millisecond
	}
	base := ServingConfig{Name: "arrivals", Duration: 5 * time.Second, Seed: 2021}
	poisson, tr, unsorted, cohort := base, base, base, base
	poisson.RatePerSec = 60
	tr.Trace = sorted
	unsorted.Trace = unsortedTrace
	cohort.RatePerSec = 60
	cohort.Workload = testWorkload()
	return map[string]ServingConfig{"poisson": poisson, "sorted trace": tr, "unsorted trace": unsorted, "cohort": cohort}
}

// TestArrivalSourceMatchesReference pins the one source against the
// generators it replaced: the same (at, app, cohort) sequence as the
// pre-draw Poisson loop, the trace walk (sorted, and unsorted with
// same-instant and past-horizon entries) and tenancy.Stream.Next.
func TestArrivalSourceMatchesReference(t *testing.T) {
	kinds := arrivalKinds()
	sameArrivals(t, "poisson", drain(t, kinds["poisson"]), refPoisson(kinds["poisson"], arrivalPool))
	for _, k := range []string{"sorted trace", "unsorted trace"} {
		sameArrivals(t, k, drain(t, kinds[k]), refTrace(kinds[k], arrivalPool))
	}
	cfg := kinds["cohort"]
	ten, err := newTenantRun(&cfg, arrivalPool)
	if err != nil {
		t.Fatal(err)
	}
	sameArrivals(t, "cohort", drain(t, cfg), refCohort(t, cfg, ten))
}

// randomWorkload draws a cohort spec the way tenancy's FuzzStream does:
// one to four cohorts at equal shares, each Poisson, gamma or Weibull
// at a CV in [0.25, 4], half of them on a rate schedule.
func randomWorkload(rng *rand.Rand) *tenancy.Spec {
	n := rng.Intn(4) + 1
	spec := &tenancy.Spec{}
	for i := range n {
		c := tenancy.Cohort{ID: string(rune('a' + i)), RateFraction: 1 / float64(n), Class: tenancy.ClassBatch}
		switch rng.Intn(3) {
		case 1:
			c.Arrival = tenancy.ArrivalSpec{Process: tenancy.ProcessGamma, CV: 0.25 + float64(rng.Intn(16))/4}
		case 2:
			c.Arrival = tenancy.ArrivalSpec{Process: tenancy.ProcessWeibull, CV: 0.25 + float64(rng.Intn(16))/4}
		}
		if rng.Intn(2) == 1 {
			c.Arrival.Schedule = []tenancy.Window{
				{Duration: tenancy.Duration(time.Second), Factor: 3},
				{Duration: tenancy.Duration(2 * time.Second), Factor: 0.5},
			}
		}
		if rng.Intn(2) == 1 {
			c.Apps = []tenancy.AppShare{{Name: "CG-A"}, {Name: "Digit500", Weight: 3}}
		}
		spec.Cohorts = append(spec.Cohorts, c)
	}
	spec.Cohorts[n-1].RateFraction = 1
	for i := 0; i < n-1; i++ {
		spec.Cohorts[n-1].RateFraction -= spec.Cohorts[i].RateFraction
	}
	return spec
}

// checkDeal deals cfg's stream over n shards and checks the deal is
// exact: shard p yields exactly the arrivals at positions ≡ p (mod n)
// of the unsharded stream, so the round-robin union of the shards is
// the unsharded stream and per-cohort offered counts sum exactly.
func checkDeal(t *testing.T, what string, cfg ServingConfig, n int) {
	t.Helper()
	whole := drain(t, cfg)
	perCohort := map[int]int{}
	for _, a := range whole {
		perCohort[a.cohort]++
	}
	total := 0
	for p := range n {
		sub := cfg
		sub.shardStride, sub.shardPhase = n, p
		part := drain(t, sub)
		for j, a := range part {
			if i := j*n + p; i >= len(whole) || a != whole[i] {
				t.Fatalf("%s, %d shards: shard %d arrival %d = %+v, not stream position %d", what, n, p, j, a, i)
			}
			perCohort[a.cohort]--
		}
		total += len(part)
	}
	if total != len(whole) {
		t.Fatalf("%s, %d shards: %d arrivals dealt, stream has %d", what, n, total, len(whole))
	}
	for c, left := range perCohort {
		if left != 0 {
			t.Fatalf("%s, %d shards: cohort %d offered counts off by %d", what, n, c, left)
		}
	}
}

// TestArrivalDealExact pins the shard deal for every stream kind: at
// 2, 3 and 5 shards and at more shards than the stream has arrivals,
// the shards together yield exactly the unsharded stream. A trace is
// dealt by position in the time-ordered stream, so an unsorted trace
// deals its sorted order. Twenty random cohort specs widen the cohort
// case.
func TestArrivalDealExact(t *testing.T) {
	for what, cfg := range arrivalKinds() {
		for _, n := range []int{2, 3, 5, len(drain(t, cfg)) + 1} {
			checkDeal(t, what, cfg, n)
		}
	}
	rng := rand.New(rand.NewSource(14))
	for k := range 20 {
		cfg := ServingConfig{
			Name: "random", Duration: 5 * time.Second, Seed: rng.Int63(),
			RatePerSec: 20 + float64(rng.Intn(80)), Workload: randomWorkload(rng),
		}
		whole := drain(t, cfg)
		for _, n := range []int{2, 3, 5, len(whole) + 1} {
			checkDeal(t, "random workload "+string(rune('A'+k)), cfg, n)
		}
	}
	// The engine counts each cohort's offered requests as it injects
	// them; summed over shards they match the unsharded run.
	cfg := arrivalKinds()["cohort"]
	cfg.Topo, cfg.Mode = cluster.ScaleOutTopology("rack6", 6, 6, 2), ModeXarTrek
	arts := testArtifacts(t)
	un, err := RunServing(arts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3} {
		sh := cfg
		sh.Opts.Shards = n
		r, err := RunServing(arts, sh)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i, c := range r.Tenancy.Cohorts {
			if c.Offered != un.Tenancy.Cohorts[i].Offered {
				t.Fatalf("%d shards: cohort %s offered %d, unsharded %d", n, c.ID, c.Offered, un.Tenancy.Cohorts[i].Offered)
			}
			sum += c.Offered
		}
		if sum != un.Offered {
			t.Fatalf("%d shards: cohorts offered %d in total, run offered %d", n, sum, un.Offered)
		}
	}
}

// TestCohortOfferedCountsShed pins that a cohort's offered count
// includes its shed requests: the engine counts each request as it
// injects it, before admission control can refuse it.
func TestCohortOfferedCountsShed(t *testing.T) {
	cfg := arrivalKinds()["cohort"]
	cfg.Topo, cfg.Mode = cluster.ScaleOutTopology("rack4", 2, 2, 1), ModeXarTrek
	cfg.Admission = &elastic.AdmissionSpec{QueueCap: 2}
	r, err := RunServing(testArtifacts(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed == 0 {
		t.Fatal("no request shed: the test needs an overloaded fleet")
	}
	sum := 0
	for _, c := range r.Tenancy.Cohorts {
		sum += c.Offered
	}
	if sum != r.Offered {
		t.Fatalf("cohorts offered %d in total, run offered %d (%d shed)", sum, r.Offered, r.Shed)
	}
}

// TestSourceRejectsRateAboveTick pins the stream bound at the source
// constructor, which covers direct ServingConfig use and knee probes: a
// rate above simtime.MaxRate would draw gaps that truncate to zero, so
// the first instant's batch would never end.
func TestSourceRejectsRateAboveTick(t *testing.T) {
	poisson := ServingConfig{Name: "fast", RatePerSec: 1e12, Duration: time.Second, Seed: 1}
	if _, err := buildSource(poisson); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("poisson at 1e12: err = %v, want a rate rejection", err)
	}
	cohort := poisson
	cohort.RatePerSec = 100
	cohort.Workload = testWorkload()
	cohort.Workload.Cohorts[1].Arrival.Schedule = []tenancy.Window{{Duration: tenancy.Duration(time.Second), Factor: 1e12}}
	if _, err := buildSource(cohort); err == nil || !strings.Contains(err.Error(), "peak rate") {
		t.Errorf("cohort window factor 1e12: err = %v, want a peak-rate rejection", err)
	}
}

// benchmarkArrivalSource measures the source's per-arrival cost: each
// op pulls one instant (one arrival at these rates, which rarely share
// a nanosecond), and the reported ns/arrival divides by the arrivals
// actually yielded. A finite stream is rebuilt off the clock when it
// ends.
func benchmarkArrivalSource(b *testing.B, cfg ServingConfig) {
	build := func() *arrivalStream {
		src, err := buildSource(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return src
	}
	src := build()
	arrivals := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, batch, ok := src.next()
		if !ok {
			b.StopTimer()
			src = build()
			b.StartTimer()
			_, batch, _ = src.next()
		}
		arrivals += len(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
}

// BenchmarkArrivalSource* track the arrival-source layer for each
// stream kind: a Poisson stream at 1000 req/s, a 64k-entry trace, and
// testWorkload's two-cohort gamma/Weibull stream.
func BenchmarkArrivalSourcePoisson(b *testing.B) {
	benchmarkArrivalSource(b, ServingConfig{Name: "bench", RatePerSec: 1000, Duration: 1 << 62, Seed: 1})
}

func BenchmarkArrivalSourceTrace(b *testing.B) {
	trace := make([]time.Duration, 1<<16)
	for i := range trace {
		trace[i] = time.Duration(i) * time.Millisecond
	}
	benchmarkArrivalSource(b, ServingConfig{Name: "bench", Trace: trace, Duration: 1 << 62, Seed: 1})
}

func BenchmarkArrivalSourceCohort(b *testing.B) {
	benchmarkArrivalSource(b, ServingConfig{Name: "bench", RatePerSec: 1000, Duration: 1 << 62, Seed: 1, Workload: testWorkload()})
}
