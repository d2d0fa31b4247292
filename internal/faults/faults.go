// Package faults is the deterministic fault-injection subsystem: it
// turns a declarative fault specification — node crashes and
// recoveries, FPGA device failures, link degradation and partitions,
// maintenance drains — into a concrete timeline of events the
// experiment engine schedules on the discrete-event simulator.
//
// Everything is a pure function of (spec, seed, horizon): explicit
// events pass through verbatim, and stochastic churn generators expand
// through a seeded RNG in deterministic order, so a campaign cell with
// a fault spec stays byte-reproducible and GOMAXPROCS-independent —
// the same contract every other randomized draw in the harness obeys.
//
// The package is deliberately topology-blind: targets are node and
// device names, link endpoints are node-name pairs, and the experiment
// platform resolves them (and rejects crashing the scheduler host) when
// it installs the timeline. Validation here is structural only.
//
// # Retry backoff schedule
//
// A disrupted request is re-placed with exponential backoff: attempt n
// (1-based) waits Backoff() << (n-1) before re-entering the killed
// phase on a freshly chosen entry node, so with the defaults the
// schedule is 10ms, 20ms, 40ms, … The per-request budget is Retries()
// attempts, clamped to MaxRetryCap regardless of how large the spec
// sets max_retries — an unbounded budget would let a full-outage
// window generate unbounded retry storms (and push the shift into
// 63-bit overflow, wrapping the delay to zero). The engine also caps
// each individual delay at an absolute bound (10s), so late attempts
// poll the recovering fleet instead of waiting minutes. A request
// that exhausts the budget is lost and counted in both requests_lost
// and retries_exhausted.
package faults

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Duration is a time.Duration that serializes as its human-readable
// string form ("60s", "1m30s"). Bare JSON numbers are accepted as
// seconds on input. (exper.Duration aliases this type, so campaign
// specs and fault specs share one wire format.)
type Duration time.Duration

// String implements fmt.Stringer.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON emits the time.ParseDuration string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "90s"-style strings or a number of seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("exper: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("exper: duration must be a string like \"60s\" or a number of seconds, got %s", b)
	}
	*d = Duration(secs * float64(time.Second))
	return nil
}

// Kind names one fault-event type.
type Kind string

// Fault-event kinds. Node events target CPU nodes by topology name;
// FPGA events target cards by topology name; link events target the
// unordered node pair (A, B).
const (
	// NodeDown crashes a node: resident work is killed (and re-placed
	// through the scheduler with bounded retry), and the node stops
	// accepting placements until NodeUp.
	NodeDown Kind = "node-down"
	// NodeUp recovers a crashed node.
	NodeUp Kind = "node-up"
	// NodeDrain starts a maintenance drain: in-flight work finishes,
	// but the node stops accepting new placements until NodeUndrain.
	NodeDrain Kind = "node-drain"
	// NodeUndrain ends a maintenance drain.
	NodeUndrain Kind = "node-undrain"
	// FPGADown fails an accelerator card: in-flight invocations are
	// lost (the affected kernels degrade to CPU execution) and the
	// card leaves the scheduler's fleet until FPGAUp. A recovered card
	// reloads its last configuration from flash, as real Alveo cards
	// do on power-up.
	FPGADown Kind = "fpga-down"
	// FPGAUp recovers a failed card.
	FPGAUp Kind = "fpga-up"
	// LinkDegrade multiplies the pair link's transfer times by Factor
	// (>1 is slower) until LinkRestore.
	LinkDegrade Kind = "link-degrade"
	// LinkPartition makes the pair unreachable: in-flight transfers
	// are killed and ARM placement across the pair is excluded until
	// LinkRestore.
	LinkPartition Kind = "link-partition"
	// LinkRestore clears any degradation or partition on the pair.
	LinkRestore Kind = "link-restore"
)

// maxLinkFactor bounds a link-degrade factor. A million-fold slowdown
// already stretches a 0.2 s transfer to 55 h, past every horizon;
// factors from about 1e11 overflow the scaled transfer time.
const maxLinkFactor = 1e6

// Event is one scheduled fault: at virtual time At, Kind happens to the
// named target.
type Event struct {
	At   Duration `json:"at"`
	Kind Kind     `json:"kind"`
	// Node names the target of node-class events.
	Node string `json:"node,omitempty"`
	// FPGA names the target card of fpga-class events (topology card
	// name, e.g. "fpga-01" or "alveo-u50").
	FPGA string `json:"fpga,omitempty"`
	// A and B name the endpoints of link-class events.
	A string `json:"a,omitempty"`
	B string `json:"b,omitempty"`
	// Factor is the link-degrade transfer-time multiplier, in
	// [1, 1e6].
	Factor float64 `json:"factor,omitempty"`
}

// Churn is a stochastic up/down generator: each target alternates
// exponentially distributed up phases (mean MTBF) and down phases
// (mean MTTR) over the horizon, seeded from the cell seed.
type Churn struct {
	// Kind selects the target class: "node" or "fpga".
	Kind string `json:"kind"`
	// Targets lists the node or card names the churn applies to.
	Targets []string `json:"targets"`
	// MTBF is the mean up time before a failure (exponential).
	MTBF Duration `json:"mtbf"`
	// MTTR is the mean down time before recovery (exponential).
	MTTR Duration `json:"mttr"`
	// Drain turns node churn into graceful maintenance windows
	// (drain/undrain) instead of crashes.
	Drain bool `json:"drain,omitempty"`
}

// Spec is the declarative fault plan of one campaign cell: explicit
// events plus stochastic churn, with the retry budget governing how
// disrupted requests are re-placed. The zero value (and an Empty spec)
// injects nothing, and the experiment engine guarantees a run under an
// empty spec is byte-identical to one with no spec at all.
type Spec struct {
	// Events lists explicit scheduled faults.
	Events []Event `json:"events,omitempty"`
	// Churn lists stochastic up/down generators, expanded
	// deterministically from the cell seed.
	Churn []Churn `json:"churn,omitempty"`
	// MaxRetries bounds the re-placement attempts of one disrupted
	// request: 0 selects the default (3), negative disables retries
	// (the first disruption loses the request).
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoff is the base of the exponential retry backoff
	// (attempt n waits base << (n-1)); 0 selects the default (10ms).
	RetryBackoff Duration `json:"retry_backoff,omitempty"`
}

// Retry defaults.
const (
	// DefaultMaxRetries is the re-placement budget when
	// Spec.MaxRetries is 0.
	DefaultMaxRetries = 3
	// DefaultRetryBackoff is the backoff base when Spec.RetryBackoff
	// is 0.
	DefaultRetryBackoff = 10 * time.Millisecond
	// MaxRetryCap is the hard ceiling on the per-request retry budget:
	// Retries() clamps any larger max_retries here, bounding the total
	// re-placement work one disrupted request can generate during a
	// full-outage window (see the package doc's backoff schedule).
	MaxRetryCap = 16
)

// Retries resolves the effective retry budget, clamped to MaxRetryCap.
func (s *Spec) Retries() int {
	switch {
	case s == nil || s.MaxRetries == 0:
		return DefaultMaxRetries
	case s.MaxRetries < 0:
		return 0
	case s.MaxRetries > MaxRetryCap:
		return MaxRetryCap
	}
	return s.MaxRetries
}

// Backoff resolves the effective backoff base.
func (s *Spec) Backoff() time.Duration {
	if s == nil || s.RetryBackoff <= 0 {
		return DefaultRetryBackoff
	}
	return time.Duration(s.RetryBackoff)
}

// Empty reports whether the spec injects nothing. An empty spec is the
// declarative no-op: the experiment engine skips fault machinery
// entirely, keeping output byte-identical to a run with no spec.
func (s *Spec) Empty() bool {
	return s == nil || (len(s.Events) == 0 && len(s.Churn) == 0)
}

// pairString renders a link pair for error messages.
func pairString(a, b string) string { return a + "-" + b }

// Validate checks the spec's structural invariants: known kinds, the
// per-kind target fields set (and only those), non-negative times,
// sane factors and churn means. Name resolution against a topology
// happens when the experiment platform installs the timeline.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		if err := ev.validate(); err != nil {
			return fmt.Errorf("faults: event %d: %w", i, err)
		}
	}
	for i, c := range s.Churn {
		if err := c.validate(); err != nil {
			return fmt.Errorf("faults: churn %d: %w", i, err)
		}
	}
	return nil
}

// validate checks one explicit event.
func (ev Event) validate() error {
	if ev.At < 0 {
		return fmt.Errorf("negative time %v", time.Duration(ev.At))
	}
	needNode, needFPGA, needLink := false, false, false
	switch ev.Kind {
	case NodeDown, NodeUp, NodeDrain, NodeUndrain:
		needNode = true
	case FPGADown, FPGAUp:
		needFPGA = true
	case LinkDegrade, LinkPartition, LinkRestore:
		needLink = true
	case "":
		return fmt.Errorf("event has no kind")
	default:
		return fmt.Errorf("unknown kind %q", ev.Kind)
	}
	if needNode != (ev.Node != "") {
		if needNode {
			return fmt.Errorf("%s needs a node", ev.Kind)
		}
		return fmt.Errorf("%s does not take a node", ev.Kind)
	}
	if needFPGA != (ev.FPGA != "") {
		if needFPGA {
			return fmt.Errorf("%s needs an fpga", ev.Kind)
		}
		return fmt.Errorf("%s does not take an fpga", ev.Kind)
	}
	if needLink != (ev.A != "" && ev.B != "") {
		if needLink {
			return fmt.Errorf("%s needs link endpoints a and b", ev.Kind)
		}
		return fmt.Errorf("%s does not take link endpoints", ev.Kind)
	}
	if needLink && ev.A == ev.B {
		return fmt.Errorf("%s: self-link %s", ev.Kind, pairString(ev.A, ev.B))
	}
	if ev.Kind == LinkDegrade {
		// The negated range test rejects NaN too.
		if !(ev.Factor >= 1 && ev.Factor <= maxLinkFactor) {
			return fmt.Errorf("link-degrade %s factor %v must be >= 1 and <= %g", pairString(ev.A, ev.B), ev.Factor, maxLinkFactor)
		}
	} else if ev.Factor != 0 {
		return fmt.Errorf("%s does not take a factor", ev.Kind)
	}
	return nil
}

// validate checks one churn generator.
func (c Churn) validate() error {
	switch c.Kind {
	case "node":
	case "fpga":
		if c.Drain {
			return fmt.Errorf("fpga churn does not take drain")
		}
	case "":
		return fmt.Errorf("churn has no kind")
	default:
		return fmt.Errorf("unknown churn kind %q (want node or fpga)", c.Kind)
	}
	if len(c.Targets) == 0 {
		return fmt.Errorf("churn has no targets")
	}
	for _, t := range c.Targets {
		if t == "" {
			return fmt.Errorf("churn has an empty target name")
		}
	}
	if c.MTBF <= 0 {
		return fmt.Errorf("non-positive mtbf %v", time.Duration(c.MTBF))
	}
	if c.MTTR <= 0 {
		return fmt.Errorf("non-positive mttr %v", time.Duration(c.MTTR))
	}
	return nil
}

// downUp returns the event kinds one churn generator alternates.
func (c Churn) downUp() (down, up Kind) {
	if c.Kind == "fpga" {
		return FPGADown, FPGAUp
	}
	if c.Drain {
		return NodeDrain, NodeUndrain
	}
	return NodeDown, NodeUp
}

// churnEvent builds one generated event for a churn target.
func (c Churn) churnEvent(kind Kind, target string, at time.Duration) Event {
	ev := Event{At: Duration(at), Kind: kind}
	if c.Kind == "fpga" {
		ev.FPGA = target
	} else {
		ev.Node = target
	}
	return ev
}

// Timeline expands the spec into the concrete event sequence of one
// run: explicit events verbatim, plus each churn target's alternating
// exponential up/down phases drawn from a single RNG seeded with seed
// and consumed in (churn index, target index) order. Events past the
// horizon are dropped, and a down phase that ends past the horizon
// still emits its down event (the target simply never recovers within
// the run). The result is stably sorted by time, explicit events
// first among equals, so it is a pure function of (spec, seed,
// horizon) — the determinism contract campaign cells rely on.
func (s *Spec) Timeline(seed int64, horizon time.Duration) ([]Event, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	var out []Event
	for _, ev := range s.Events {
		if time.Duration(ev.At) >= horizon {
			continue
		}
		out = append(out, ev)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eedfa01))
	for _, c := range s.Churn {
		down, up := c.downUp()
		for _, target := range c.Targets {
			t := time.Duration(0)
			for {
				t += time.Duration(rng.ExpFloat64() * float64(time.Duration(c.MTBF)))
				if t >= horizon {
					break
				}
				out = append(out, c.churnEvent(down, target, t))
				t += time.Duration(rng.ExpFloat64() * float64(time.Duration(c.MTTR)))
				if t >= horizon {
					break
				}
				out = append(out, c.churnEvent(up, target, t))
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}
