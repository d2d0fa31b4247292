package tenancy

import (
	"math"
	"strings"
	"testing"
	"time"
)

// twoCohorts is a canonical valid spec: a bursty critical cohort and
// a batch cohort splitting the aggregate 30/70.
func twoCohorts() *Spec {
	return &Spec{Cohorts: []Cohort{
		{
			ID: "interactive", RateFraction: 0.3, Class: ClassCritical,
			Deadline: Duration(250 * time.Millisecond),
			Arrival:  ArrivalSpec{Process: ProcessGamma, CV: 3},
			Apps:     []AppShare{{Name: "FaceDet320", Weight: 2}, {Name: "Digit500"}},
		},
		{ID: "analytics", RateFraction: 0.7, Class: ClassBatch},
	}}
}

func TestValidateAccepts(t *testing.T) {
	if err := twoCohorts().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestValidateErrorsCarryCohortID pins the validation contract of the
// satellite task: malformed cohort fields fail with the cohort's id in
// the message, the campaign trace loader's field-context convention.
func TestValidateErrorsCarryCohortID(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"fractions must sum to 1", func(s *Spec) { s.Cohorts[1].RateFraction = 0.5 }, "sum to 0.8"},
		{"unknown class", func(s *Spec) { s.Cohorts[1].Class = "gold" }, `cohort "analytics": unknown class "gold"`},
		{"missing class", func(s *Spec) { s.Cohorts[1].Class = "" }, `cohort "analytics": cohort has no class`},
		{"cv must be positive", func(s *Spec) { s.Cohorts[0].Arrival.CV = -2 }, `cohort "interactive": gamma arrivals need a positive cv`},
		{"cv bounded", func(s *Spec) { s.Cohorts[0].Arrival.CV = 1e6 }, `cohort "interactive": cv 1e+06 outside`},
		{"poisson takes no cv", func(s *Spec) { s.Cohorts[1].Arrival.CV = 2 }, `cohort "analytics": poisson arrivals have cv 1`},
		{"unknown process", func(s *Spec) { s.Cohorts[0].Arrival.Process = "pareto" }, `cohort "interactive": unknown arrival process "pareto"`},
		{"critical needs deadline", func(s *Spec) { s.Cohorts[0].Deadline = 0 }, `cohort "interactive": critical class needs a positive deadline`},
		{"batch takes no deadline", func(s *Spec) { s.Cohorts[1].Deadline = Duration(time.Second) }, `cohort "analytics": batch class does not take a deadline`},
		{"non-positive fraction", func(s *Spec) { s.Cohorts[0].RateFraction = 0 }, `cohort "interactive": rate_fraction 0 outside (0, 1]`},
		{"schedule window duration", func(s *Spec) {
			s.Cohorts[0].Arrival.Schedule = []Window{{Duration: 0, Factor: 2}}
		}, `cohort "interactive": schedule window 0 needs a positive duration`},
		{"schedule window factor", func(s *Spec) {
			s.Cohorts[0].Arrival.Schedule = []Window{{Duration: Duration(time.Second), Factor: -1}}
		}, `cohort "interactive": schedule window 0 needs a positive factor`},
		{"app mix name", func(s *Spec) { s.Cohorts[0].Apps = []AppShare{{Name: ""}} }, `cohort "interactive": app mix entry 0 has no name`},
		{"negative weight", func(s *Spec) { s.Cohorts[0].Apps[0].Weight = -1 }, `cohort "interactive": app "FaceDet320" has negative weight`},
		{"duplicate id", func(s *Spec) { s.Cohorts[1].ID = "interactive" }, `duplicate cohort id "interactive"`},
		{"missing id", func(s *Spec) { s.Cohorts[1].ID = "" }, "cohort 1 has no id"},
	}
	for _, tc := range cases {
		s := twoCohorts()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err == nil || !strings.Contains(err.Error(), "at least one cohort") {
		t.Errorf("nil spec: got %v", err)
	}
}

func TestClasses(t *testing.T) {
	got := twoCohorts().Classes()
	if len(got) != 2 || got[0] != ClassBatch || got[1] != ClassCritical {
		t.Fatalf("Classes() = %v, want [batch critical]", got)
	}
}

// collect drains a stream.
func collect(t *testing.T, c StreamConfig) []Arrival {
	t.Helper()
	s, err := NewStream(c)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	var out []Arrival
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

func streamCfg() StreamConfig {
	return StreamConfig{Spec: twoCohorts(), RatePerSec: 500, Horizon: 60 * time.Second, Seed: 2021, PoolSize: 5}
}

// TestStreamMonotoneAndInHorizon pins the merged-stream contract:
// non-decreasing timestamps inside [0, horizon), cohorts and app
// indices in range.
func TestStreamMonotoneAndInHorizon(t *testing.T) {
	cfg := streamCfg()
	all := collect(t, cfg)
	if len(all) == 0 {
		t.Fatal("empty stream")
	}
	var prev time.Duration
	for i, a := range all {
		if a.At < prev {
			t.Fatalf("arrival %d at %v before predecessor %v", i, a.At, prev)
		}
		prev = a.At
		if a.At < 0 || a.At >= cfg.Horizon {
			t.Fatalf("arrival %d at %v outside [0, %v)", i, a.At, cfg.Horizon)
		}
		switch a.Cohort {
		case 0:
			if a.App < 0 || a.App > 1 {
				t.Fatalf("arrival %d: mix index %d out of range", i, a.App)
			}
		case 1:
			if a.App < 0 || a.App >= cfg.PoolSize {
				t.Fatalf("arrival %d: pool index %d out of range", i, a.App)
			}
		default:
			t.Fatalf("arrival %d: cohort %d out of range", i, a.Cohort)
		}
	}
}

// TestStreamDeterministic pins that one seed fixes the realization.
func TestStreamDeterministic(t *testing.T) {
	a := collect(t, streamCfg())
	b := collect(t, streamCfg())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRateFractionsRespected checks each cohort's share of the merged
// stream against its declared fraction (law of large numbers bound).
func TestRateFractionsRespected(t *testing.T) {
	cfg := streamCfg()
	all := collect(t, cfg)
	counts := make([]int, len(cfg.Spec.Cohorts))
	for _, a := range all {
		counts[a.Cohort]++
	}
	for i, c := range cfg.Spec.Cohorts {
		got := float64(counts[i]) / float64(len(all))
		if math.Abs(got-c.RateFraction) > 0.05 {
			t.Errorf("cohort %q: fraction %.3f, want %.3f±0.05 (%d of %d)",
				c.ID, got, c.RateFraction, counts[i], len(all))
		}
	}
	// The aggregate count should be near rate × horizon.
	want := cfg.RatePerSec * cfg.Horizon.Seconds()
	if got := float64(len(all)); math.Abs(got-want)/want > 0.1 {
		t.Errorf("aggregate %v arrivals, want about %v", got, want)
	}
}

// empiricalCV measures mean and CV of one cohort's inter-arrival gaps
// under the given process.
func empiricalCV(t *testing.T, process string, cv float64) (mean, gotCV float64) {
	t.Helper()
	spec := &Spec{Cohorts: []Cohort{{
		ID: "only", RateFraction: 1, Class: ClassBatch,
		Arrival: ArrivalSpec{Process: process, CV: cv},
	}}}
	if process == ProcessPoisson {
		spec.Cohorts[0].Arrival.CV = 0
	}
	all := collect(t, StreamConfig{Spec: spec, RatePerSec: 1000, Horizon: 100 * time.Second, Seed: 7, PoolSize: 3})
	if len(all) < 10000 {
		t.Fatalf("%s cv=%v: only %d arrivals", process, cv, len(all))
	}
	var prev time.Duration
	var sum, sumSq float64
	n := 0
	for _, a := range all {
		gap := (a.At - prev).Seconds()
		prev = a.At
		sum += gap
		sumSq += gap * gap
		n++
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	return mean, math.Sqrt(variance) / mean
}

// TestGapCVMatchesSpec is the property test of the satellite task: the
// empirical CV of gamma and weibull gap processes lands within
// tolerance of the declared CV, and the mean gap matches the rate.
func TestGapCVMatchesSpec(t *testing.T) {
	cases := []struct {
		process string
		cv      float64
	}{
		{ProcessPoisson, 1},
		{ProcessGamma, 0.5},
		{ProcessGamma, 2},
		{ProcessGamma, 4},
		{ProcessWeibull, 0.7},
		{ProcessWeibull, 2},
		{ProcessWeibull, 3},
	}
	for _, tc := range cases {
		mean, cv := empiricalCV(t, tc.process, tc.cv)
		if math.Abs(mean-0.001)/0.001 > 0.1 {
			t.Errorf("%s cv=%v: mean gap %.6fs, want ~0.001s", tc.process, tc.cv, mean)
		}
		if math.Abs(cv-tc.cv)/tc.cv > 0.15 {
			t.Errorf("%s: empirical CV %.3f, want %.3f±15%%", tc.process, cv, tc.cv)
		}
	}
}

// TestScheduleModulatesRate checks the per-window rate schedule: a
// 4×/0.25× two-window cycle should put most arrivals in the hot
// windows.
func TestScheduleModulatesRate(t *testing.T) {
	spec := &Spec{Cohorts: []Cohort{{
		ID: "diurnal", RateFraction: 1, Class: ClassBatch,
		Arrival: ArrivalSpec{Schedule: []Window{
			{Duration: Duration(5 * time.Second), Factor: 4},
			{Duration: Duration(5 * time.Second), Factor: 0.25},
		}},
	}}}
	all := collect(t, StreamConfig{Spec: spec, RatePerSec: 200, Horizon: 60 * time.Second, Seed: 3, PoolSize: 2})
	hot, cold := 0, 0
	for _, a := range all {
		if a.At%(10*time.Second) < 5*time.Second {
			hot++
		} else {
			cold++
		}
	}
	if hot <= 4*cold {
		t.Fatalf("hot windows got %d arrivals vs %d cold; want >4x skew", hot, cold)
	}
}

// TestWeibullShape pins the CV→shape inversion at known points:
// CV 1 is the exponential (shape 1).
func TestWeibullShape(t *testing.T) {
	if k := weibullShape(1); math.Abs(k-1) > 1e-6 {
		t.Errorf("weibullShape(1) = %v, want 1", k)
	}
	// Round-trip: the solved shape's analytic CV matches the input.
	for _, cv := range []float64{0.3, 0.8, 1.5, 3, 10} {
		k := weibullShape(cv)
		g1 := math.Gamma(1 + 1/k)
		got := math.Sqrt(math.Gamma(1+2/k)/(g1*g1) - 1)
		if math.Abs(got-cv)/cv > 1e-6 {
			t.Errorf("weibullShape(%v) = %v round-trips to CV %v", cv, k, got)
		}
	}
}

func TestNewStreamRejects(t *testing.T) {
	base := streamCfg()
	cases := []struct {
		name   string
		mutate func(*StreamConfig)
		want   string
	}{
		{"bad spec", func(c *StreamConfig) { c.Spec = &Spec{} }, "at least one cohort"},
		{"bad rate", func(c *StreamConfig) { c.RatePerSec = 0 }, "non-positive aggregate rate"},
		{"bad horizon", func(c *StreamConfig) { c.Horizon = 0 }, "non-positive horizon"},
		{"empty pool", func(c *StreamConfig) { c.PoolSize = 0 }, `cohort "analytics" draws from the application pool`},
		// A peak rate above simtime.MaxRate draws gaps that truncate to
		// zero, so the cohort's clock would never reach the horizon.
		{"rate above tick", func(c *StreamConfig) { c.RatePerSec = 1e12 }, `cohort "interactive": peak rate`},
		{"window factor above tick", func(c *StreamConfig) {
			c.RatePerSec, c.Spec = 100, twoCohorts()
			c.Spec.Cohorts[1].Arrival.Schedule = []Window{
				{Duration: Duration(time.Second), Factor: 1},
				{Duration: Duration(time.Second), Factor: 1e12},
			}
		}, `cohort "analytics": peak rate`},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		_, err := NewStream(c)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}
