package exper

import (
	"fmt"
	"math/rand"
	"time"

	"xartrek/internal/simtime"
)

// MMPPState is one regime of a Markov-modulated Poisson process:
// while the modulating chain sits in this state, arrivals are Poisson
// at RatePerSec; the sojourn time in the state is exponential with
// mean MeanSojourn.
type MMPPState struct {
	// RatePerSec is the state's Poisson arrival rate
	// (requests/second); zero models an idle regime.
	RatePerSec float64
	// MeanSojourn is the mean dwell time before the chain moves to
	// the next state.
	MeanSojourn time.Duration
}

// MMPPTrace draws one bursty open-loop arrival trace from a
// Markov-modulated Poisson process whose modulating chain cycles
// through the given states in order (the classic on/off interrupted
// Poisson process is the two-state instance). The result is a sorted
// offset list ready for ServingConfig.Trace, covering [0, horizon);
// a fixed seed makes the trace — and therefore the whole serving run —
// byte-identical across machines.
//
// Unlike a plain Poisson stream at the blended average rate, the
// squared coefficient of variation of the interarrival times exceeds
// one: arrivals clump inside high-rate sojourns and the tail of the
// latency distribution reflects burst absorption, not steady-state
// queueing — the regime recorded production traces show.
func MMPPTrace(seed int64, horizon time.Duration, states []MMPPState) ([]time.Duration, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("exper: mmpp: non-positive horizon %v", horizon)
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("exper: mmpp: no states")
	}
	for i, s := range states {
		if s.RatePerSec < 0 {
			return nil, fmt.Errorf("exper: mmpp: state %d has negative rate %v", i, s.RatePerSec)
		}
		if !(s.RatePerSec <= simtime.MaxRate) {
			return nil, fmt.Errorf("exper: mmpp: state %d rate %v exceeds the %v req/s stream bound", i, s.RatePerSec, simtime.MaxRate)
		}
		if s.MeanSojourn <= 0 {
			return nil, fmt.Errorf("exper: mmpp: state %d has non-positive mean sojourn %v", i, s.MeanSojourn)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	var t time.Duration
	for state := 0; t < horizon; state = (state + 1) % len(states) {
		s := states[state]
		sojourn := time.Duration(rng.ExpFloat64() * float64(s.MeanSojourn))
		end := t + sojourn
		if end > horizon {
			end = horizon
		}
		if s.RatePerSec > 0 {
			// Draw the state's Poisson arrivals over [t, end).
			at := t
			for {
				gap := rng.ExpFloat64() / s.RatePerSec
				at += time.Duration(gap * float64(time.Second))
				if at >= end {
					break
				}
				out = append(out, at)
			}
		}
		t = end
	}
	return out, nil
}
