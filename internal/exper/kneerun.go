package exper

import (
	"time"

	"xartrek/internal/elastic"
)

// KneeResult is one capacity-knee cell's report: the maximum offered
// load the topology × policy sustains while meeting the SLO, found by
// bisection over full serving runs (KneeSpec.Search). Composed with a
// fault spec it answers the capacity-planning question under churn.
type KneeResult struct {
	// Name, Mode and Policy identify the searched configuration.
	Name   string `json:"name"`
	Mode   Mode   `json:"mode"`
	Policy string `json:"policy"`
	// KneeRatePerSec is the highest probed Poisson rate that met the
	// SLO.
	KneeRatePerSec float64 `json:"knee_rate_per_sec"`
	// Probes lists every evaluated rate in search order.
	Probes []elastic.Probe `json:"probes"`
	// AtKnee is the full serving result of the knee-rate probe.
	AtKnee *ServingResult `json:"at_knee,omitempty"`
}

// runKnee executes one resolved knee cell: each probe is a complete
// deterministic serving run of the cell's configuration at the probed
// rate, so the knee is a pure function of the cell — byte-identical
// across runs and GOMAXPROCS settings. An unbracketed window
// (elastic.ErrUnbracketed) fails the cell, which fails the campaign.
func runKnee(arts *Artifacts, c *runnableCell) (KneeResult, error) {
	spec := c.spec
	base := c.servingConfig()
	var atKnee *ServingResult
	knee, probes, err := spec.Knee.Search(func(rate float64) (elastic.Probe, error) {
		cfg := base
		cfg.RatePerSec = rate
		r, err := RunServing(arts, cfg)
		if err != nil {
			return elastic.Probe{}, err
		}
		shedFrac := 0.0
		if r.Offered > 0 {
			shedFrac = float64(r.Shed) / float64(r.Offered)
		}
		obs := elastic.Observed{P99: r.P99, ShedFraction: shedFrac}
		p := elastic.Probe{
			RatePerSec:   rate,
			P99:          elastic.Duration(r.P99),
			ShedFraction: shedFrac,
		}
		// A workload-driven probe surfaces its per-class observations
		// so class_p99 / min_attainment bounds can judge them.
		if r.Tenancy != nil {
			obs.ClassP99 = make(map[string]time.Duration, len(r.Tenancy.Classes))
			obs.ClassAttainment = make(map[string]float64, len(r.Tenancy.Classes))
			p.ClassP99 = make(map[string]elastic.Duration, len(r.Tenancy.Classes))
			for _, cl := range r.Tenancy.Classes {
				obs.ClassP99[cl.Class] = cl.P99
				p.ClassP99[cl.Class] = elastic.Duration(cl.P99)
				if cl.Deadlined {
					obs.ClassAttainment[cl.Class] = cl.Attainment
					if p.ClassAttainment == nil {
						p.ClassAttainment = make(map[string]float64)
					}
					p.ClassAttainment[cl.Class] = cl.Attainment
				}
			}
		}
		p.Pass = spec.Knee.SLO.PassObserved(obs)
		if p.Pass {
			// Passing rates only ever increase during the bisection, so
			// the last retained result is the at-knee run.
			r := r
			atKnee = &r
		}
		return p, nil
	})
	if err != nil {
		return KneeResult{}, err
	}
	res := KneeResult{
		Name:           base.Name,
		Mode:           c.mode,
		KneeRatePerSec: knee,
		Probes:         probes,
		AtKnee:         atKnee,
	}
	if res.Name == "" {
		res.Name = c.topo.Name
	}
	if atKnee != nil {
		res.Policy = atKnee.Policy
	}
	return res, nil
}
