package tenancy

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Arrival is one request of the merged stream: when it arrives, which
// cohort issued it, and which application it runs — App indexes the
// cohort's mix when the cohort declares one, and the run's shared
// application pool otherwise.
type Arrival struct {
	At     time.Duration
	Cohort int
	App    int
}

// StreamConfig parameterises one merged-stream generator.
type StreamConfig struct {
	// Spec is the validated workload declaration.
	Spec *Spec
	// RatePerSec is the aggregate arrival rate the cohorts' fractions
	// split.
	RatePerSec float64
	// Horizon bounds the stream: each cohort stops at its first draw
	// at or past it.
	Horizon time.Duration
	// Seed is the parent seed; every cohort derives its own
	// deterministic sub-seed from it, so one seed fixes the whole
	// merged realization.
	Seed int64
	// PoolSize is the shared application pool's size, drawn from by
	// cohorts without an explicit mix.
	PoolSize int
}

// Stream generates the merged arrival stream lazily: per-cohort
// generators hold one look-ahead arrival each and Next pops the
// earliest (ties toward the lower cohort index), so a million-request
// cell holds O(cohorts) arrival state. The sequence is a pure function
// of the config.
type Stream struct {
	gens []*cohortGen
}

// cohortGen is one cohort's lazy arrival source.
type cohortGen struct {
	rng     *rand.Rand
	gap     func(*rand.Rand) float64 // normalized gap, mean 1
	meanGap float64                  // seconds at factor 1
	mix     []float64                // cumulative weights; nil draws from the pool
	pool    int
	sched   []Window
	period  time.Duration // schedule cycle length
	horizon time.Duration

	t    time.Duration
	next Arrival
	done bool
}

// NewStream builds the generator. The spec must already be valid;
// NewStream re-validates and additionally checks the run-scoped
// parameters a spec cannot know (rate, horizon, pool size).
func NewStream(c StreamConfig) (*Stream, error) {
	if err := c.Spec.Validate(); err != nil {
		return nil, err
	}
	if c.RatePerSec <= 0 {
		return nil, fmt.Errorf("tenancy: non-positive aggregate rate %v", c.RatePerSec)
	}
	if err := c.Spec.CheckRate(c.RatePerSec); err != nil {
		return nil, err
	}
	if c.Horizon <= 0 {
		return nil, fmt.Errorf("tenancy: non-positive horizon %v", c.Horizon)
	}
	s := &Stream{gens: make([]*cohortGen, len(c.Spec.Cohorts))}
	for i := range c.Spec.Cohorts {
		co := &c.Spec.Cohorts[i]
		g := &cohortGen{
			rng:     rand.New(rand.NewSource(cohortSeed(c.Seed, i))),
			meanGap: 1 / (co.RateFraction * c.RatePerSec),
			pool:    c.PoolSize,
			sched:   co.Arrival.Schedule,
			horizon: c.Horizon,
		}
		for _, w := range g.sched {
			g.period += time.Duration(w.Duration)
		}
		switch co.Arrival.Process {
		case "", ProcessPoisson:
			g.gap = func(r *rand.Rand) float64 { return r.ExpFloat64() }
		case ProcessGamma:
			shape := 1 / (co.Arrival.CV * co.Arrival.CV)
			g.gap = func(r *rand.Rand) float64 { return gammaNorm(r, shape) }
		case ProcessWeibull:
			shape := weibullShape(co.Arrival.CV)
			scale := 1 / math.Gamma(1+1/shape)
			g.gap = func(r *rand.Rand) float64 { return weibullNorm(r, shape, scale) }
		}
		if len(co.Apps) > 0 {
			g.mix = make([]float64, len(co.Apps))
			cum := 0.0
			for j, a := range co.Apps {
				w := a.Weight
				if w == 0 {
					w = 1
				}
				cum += w
				g.mix[j] = cum
			}
			if cum <= 0 {
				return nil, fmt.Errorf("tenancy: cohort %q: app mix has zero total weight", co.ID)
			}
		} else if c.PoolSize <= 0 {
			return nil, fmt.Errorf("tenancy: cohort %q draws from the application pool but the pool is empty", co.ID)
		}
		g.advance(i)
		s.gens[i] = g
	}
	return s, nil
}

// Next yields the merged stream's next arrival in timestamp order;
// ok=false at end of stream.
func (s *Stream) Next() (Arrival, bool) {
	min := -1
	for i, g := range s.gens {
		if g.done {
			continue
		}
		if min < 0 || g.next.At < s.gens[min].next.At {
			min = i
		}
	}
	if min < 0 {
		return Arrival{}, false
	}
	a := s.gens[min].next
	s.gens[min].advance(min)
	return a, true
}

// advance draws the cohort's next arrival: a gap (time-dilated by the
// schedule factor at the draw's start), then the application. A draw
// at or past the horizon ends the cohort, consuming only its gap —
// the same end-of-stream discipline the Poisson serving source uses.
func (g *cohortGen) advance(cohort int) {
	gap := g.gap(g.rng) * g.meanGap / g.factor()
	g.t += time.Duration(gap * float64(time.Second))
	if g.t >= g.horizon {
		g.done = true
		return
	}
	a := Arrival{At: g.t, Cohort: cohort}
	switch {
	case len(g.mix) == 1:
		a.App = 0
	case len(g.mix) > 1:
		u := g.rng.Float64() * g.mix[len(g.mix)-1]
		for j, cum := range g.mix {
			if u < cum {
				a.App = j
				break
			}
			a.App = j // u == total weight rounds into the last entry
		}
	default:
		a.App = g.rng.Intn(g.pool)
	}
	g.next = a
}

// factor is the schedule's rate multiplier at the cohort's current
// clock; the windows cycle over the horizon. 1 without a schedule.
func (g *cohortGen) factor() float64 {
	if len(g.sched) == 0 {
		return 1
	}
	off := g.t % g.period
	for _, w := range g.sched {
		if off < time.Duration(w.Duration) {
			return w.Factor
		}
		off -= time.Duration(w.Duration)
	}
	return g.sched[len(g.sched)-1].Factor
}

// cohortSeed derives cohort i's RNG seed from the parent seed with a
// splitmix64 finalizer, so adjacent seeds and adjacent cohorts still
// get decorrelated streams.
func cohortSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// gammaNorm draws a mean-1 gamma variate with the given shape
// (Marsaglia–Tsang; shapes below 1 use the U^(1/shape) boost). The
// gap CV is 1/sqrt(shape).
func gammaNorm(rng *rand.Rand, shape float64) float64 {
	boost, k := 1.0, shape
	if k < 1 {
		boost = math.Pow(rng.Float64(), 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x || math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			// Gamma(shape, 1) sample scaled to mean 1.
			return boost * d * v / shape
		}
	}
}

// weibullNorm draws a mean-1 Weibull variate by inverse CDF.
func weibullNorm(rng *rand.Rand, shape, scale float64) float64 {
	return scale * math.Pow(-math.Log1p(-rng.Float64()), 1/shape)
}

// weibullShape solves the Weibull shape whose gap CV matches the
// spec: CV² + 1 = Γ(1+2/k) / Γ(1+1/k)², which is strictly decreasing
// in k, so a bisection converges.
func weibullShape(cv float64) float64 {
	target := cv*cv + 1
	f := func(k float64) float64 {
		g1 := math.Gamma(1 + 1/k)
		return math.Gamma(1+2/k) / (g1 * g1)
	}
	lo, hi := 0.02, 200.0
	for range 200 {
		mid := (lo + hi) / 2
		if f(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}
