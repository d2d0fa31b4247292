// Package tenancy models multi-client serving workloads: a declarative
// spec of named cohorts — each with a rate fraction of the aggregate
// arrival rate, an SLO class, an arrival process with tunable
// burstiness, and an application mix — plus a deterministic generator
// that interleaves the cohorts' arrivals into one merged,
// timestamp-ordered request stream from a single parent seed
// (stream.go). The model follows the shape real inference middleware
// uses to describe client populations (per-client rate fractions and
// critical/batch SLO classes), so a campaign cell can state who its
// traffic is instead of hand-rolling arrival loops.
package tenancy

import (
	"fmt"
	"math"

	"xartrek/internal/faults"
	"xartrek/internal/simtime"
)

// Duration aliases the campaign layer's wire duration ("250ms"-style
// strings, bare numbers as seconds), so workload specs embed in
// campaign JSON with one time format.
type Duration = faults.Duration

// SLO classes. A cohort is either latency-critical — judged against
// its deadline — or batch, which tolerates queueing and absorbs the
// slack the platform spends on the critical tail.
const (
	// ClassCritical marks a latency-sensitive cohort; Deadline is its
	// per-request completion-latency SLO.
	ClassCritical = "critical"
	// ClassBatch marks a throughput-oriented cohort with no deadline.
	ClassBatch = "batch"
)

// Arrival processes selectable per cohort. The empty string selects
// ProcessPoisson.
const (
	// ProcessPoisson draws exponential inter-arrival gaps (CV 1).
	ProcessPoisson = "poisson"
	// ProcessGamma draws gamma-distributed gaps with the cohort's CV:
	// CV > 1 is burstier than Poisson, CV < 1 smoother.
	ProcessGamma = "gamma"
	// ProcessWeibull draws Weibull-distributed gaps with the cohort's
	// CV — heavier-tailed bursts than gamma at the same CV.
	ProcessWeibull = "weibull"
)

// maxCV bounds the burstiness knob: beyond it the gamma/weibull shape
// parameters degenerate numerically (shape 1/CV² underflows the
// samplers).
const maxCV = 50.0

// fracTol is the tolerance on the cohort rate fractions' sum.
const fracTol = 1e-9

// Spec declares one multi-client workload: the cohorts sharing an
// aggregate arrival rate. It is the CellSpec.Workload payload of
// serving-family campaign cells.
type Spec struct {
	Cohorts []Cohort `json:"cohorts"`
}

// Cohort is one named client population.
type Cohort struct {
	// ID names the cohort in reports and validation errors.
	ID string `json:"id"`
	// RateFraction is the cohort's share of the aggregate arrival
	// rate; the fractions of a spec must sum to 1.
	RateFraction float64 `json:"rate_fraction"`
	// Class is the cohort's SLO class: ClassCritical or ClassBatch.
	Class string `json:"class"`
	// Deadline is the critical class's per-request completion-latency
	// SLO; required for critical cohorts, not taken by batch cohorts.
	Deadline Duration `json:"deadline,omitempty"`
	// Arrival shapes the cohort's inter-arrival process; the zero
	// value is Poisson.
	Arrival ArrivalSpec `json:"arrival,omitempty"`
	// Apps is the cohort's application mix, drawn by weight per
	// request. Empty draws uniformly from the run's full application
	// pool (the pre-tenancy behaviour).
	Apps []AppShare `json:"apps,omitempty"`
}

// ArrivalSpec selects a cohort's inter-arrival process.
type ArrivalSpec struct {
	// Process is ProcessPoisson (also the empty string), ProcessGamma
	// or ProcessWeibull.
	Process string `json:"process,omitempty"`
	// CV is the coefficient of variation of the inter-arrival gaps for
	// gamma and weibull processes (required there, in (0, 50]); the
	// Poisson process has CV 1 by definition and takes no cv knob.
	CV float64 `json:"cv,omitempty"`
	// Schedule, when non-empty, modulates the cohort's rate over time:
	// the windows cycle over the horizon and each window multiplies
	// the cohort's base rate by its factor — a diurnal or bursty
	// profile on top of the stochastic gap process.
	Schedule []Window `json:"schedule,omitempty"`
}

// Window is one rate-schedule segment.
type Window struct {
	// Duration is the window's length on the simulation clock.
	Duration Duration `json:"duration"`
	// Factor multiplies the cohort's base rate inside the window.
	Factor float64 `json:"factor"`
}

// AppShare is one entry of a cohort's application mix.
type AppShare struct {
	// Name is the application's registry name (e.g. "FaceDet320").
	Name string `json:"name"`
	// Weight is the entry's draw weight; 0 means 1.
	Weight float64 `json:"weight,omitempty"`
}

// Enabled reports whether the spec declares any cohorts (a nil spec
// does not).
func (s *Spec) Enabled() bool { return s != nil && len(s.Cohorts) > 0 }

// Classes returns the distinct SLO classes of the spec's cohorts in
// sorted order — the deterministic per-class reporting order.
func (s *Spec) Classes() []string {
	if !s.Enabled() {
		return nil
	}
	seen := make(map[string]bool, 2)
	var out []string
	for _, c := range s.Cohorts {
		if !seen[c.Class] {
			seen[c.Class] = true
			out = append(out, c.Class)
		}
	}
	// Two known classes: a comparison sort is overkill.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Validate checks the spec's structural invariants. Errors carry the
// offending cohort's id — the field-context convention of the
// campaign layer's trace loader — so a malformed ten-cohort spec
// points at the cohort to fix.
func (s *Spec) Validate() error {
	if s == nil || len(s.Cohorts) == 0 {
		return fmt.Errorf("tenancy: workload needs at least one cohort")
	}
	ids := make(map[string]bool, len(s.Cohorts))
	sum := 0.0
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if c.ID == "" {
			return fmt.Errorf("tenancy: cohort %d has no id", i)
		}
		if ids[c.ID] {
			return fmt.Errorf("tenancy: duplicate cohort id %q", c.ID)
		}
		ids[c.ID] = true
		if err := c.validate(); err != nil {
			return err
		}
		sum += c.RateFraction
	}
	if math.Abs(sum-1) > fracTol {
		return fmt.Errorf("tenancy: cohort rate_fractions sum to %v, want 1", sum)
	}
	return nil
}

// CheckRate rejects an aggregate rate at which some cohort's peak rate
// (its rate_fraction share times its largest schedule factor, 1
// without a schedule) exceeds simtime.MaxRate.
func (s *Spec) CheckRate(rate float64) error {
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		factor := 1.0
		if len(c.Arrival.Schedule) > 0 {
			factor = 0
			for _, w := range c.Arrival.Schedule {
				factor = max(factor, w.Factor)
			}
		}
		if peak := rate * c.RateFraction * factor; !(peak <= simtime.MaxRate) {
			return fmt.Errorf("tenancy: cohort %q: peak rate %v req/s exceeds %v", c.ID, peak, simtime.MaxRate)
		}
	}
	return nil
}

// validate checks one cohort; every error names the cohort.
func (c *Cohort) validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("tenancy: cohort %q: %s", c.ID, fmt.Sprintf(format, args...))
	}
	if c.RateFraction <= 0 || c.RateFraction > 1 {
		return fail("rate_fraction %v outside (0, 1]", c.RateFraction)
	}
	switch c.Class {
	case ClassCritical:
		if c.Deadline <= 0 {
			return fail("critical class needs a positive deadline")
		}
	case ClassBatch:
		if c.Deadline != 0 {
			return fail("batch class does not take a deadline")
		}
	case "":
		return fail("cohort has no class (want %s or %s)", ClassCritical, ClassBatch)
	default:
		return fail("unknown class %q (want %s or %s)", c.Class, ClassCritical, ClassBatch)
	}
	switch c.Arrival.Process {
	case "", ProcessPoisson:
		if c.Arrival.CV != 0 {
			return fail("poisson arrivals have cv 1 by definition and take no cv knob")
		}
	case ProcessGamma, ProcessWeibull:
		if c.Arrival.CV <= 0 {
			return fail("%s arrivals need a positive cv", c.Arrival.Process)
		}
		if c.Arrival.CV > maxCV {
			return fail("cv %v outside (0, %v]", c.Arrival.CV, maxCV)
		}
	default:
		return fail("unknown arrival process %q (want %s, %s or %s)",
			c.Arrival.Process, ProcessPoisson, ProcessGamma, ProcessWeibull)
	}
	for j, w := range c.Arrival.Schedule {
		if w.Duration <= 0 {
			return fail("schedule window %d needs a positive duration", j)
		}
		if w.Factor <= 0 {
			return fail("schedule window %d needs a positive factor", j)
		}
	}
	for j, a := range c.Apps {
		if a.Name == "" {
			return fail("app mix entry %d has no name", j)
		}
		if a.Weight < 0 {
			return fail("app %q has negative weight %v", a.Name, a.Weight)
		}
	}
	return nil
}
