package exper

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/sched"
	"xartrek/internal/elastic"
	"xartrek/internal/faults"
	"xartrek/internal/tenancy"
	"xartrek/internal/workloads"
)

// ServingConfig describes one open-loop serving run: a topology under
// a request stream whose arrivals do not wait for completions —
// the regime of a middleware fleet multiplexing many independent
// clients. Arrivals are Poisson at RatePerSec (drawn deterministically
// from Seed) or, when Trace is non-empty, replayed from an explicit
// arrival-offset trace.
type ServingConfig struct {
	// Name labels the run in reports; empty defaults to the topology
	// name.
	Name string
	Topo cluster.Topology
	Mode Mode
	// RatePerSec is the mean Poisson arrival rate (requests/second).
	// Ignored when Trace is set.
	RatePerSec float64
	// Duration is the injection window and the measurement horizon:
	// arrivals are issued over [0, Duration) and only requests that
	// complete by Duration count.
	Duration time.Duration
	// Seed drives the arrival process and the per-request application
	// draw; fixed seeds make runs byte-identical.
	Seed int64
	// Trace, when non-empty, lists explicit arrival offsets from time
	// zero (trace-driven mode). Offsets at or past Duration are
	// dropped; negative offsets are invalid. MMPPTrace generates
	// bursty traces in this format.
	Trace []time.Duration
	// Policy selects the scheduler fleet's placement policy for this
	// run (PolicyDefault, PolicyLinkAware, PolicyAffinity). Non-empty
	// values override Opts.Policy.
	Policy string
	// Opts carries the ablation switches.
	Opts Options
	// Faults, when non-empty, injects the spec's failure timeline into
	// the run (expanded deterministically from Seed) and makes the
	// scheduler fleet failure-aware. nil or an empty spec leaves the
	// run byte-identical to the pre-fault engine.
	Faults *faults.Spec
	// Admission, when enabled, bounds each entry node's resident queue
	// and sheds (or degrades) over-cap arrivals by the spec's overload
	// policy. nil or a disabled spec leaves the run byte-identical to
	// the pre-admission engine.
	Admission *elastic.AdmissionSpec
	// Autoscaler, when enabled, runs the elastic control loop: an
	// epoch sampler on the sim timeline joins and drains entry nodes
	// by observed load. nil or a disabled spec leaves the run
	// byte-identical to the pre-autoscaler engine.
	Autoscaler *elastic.AutoscalerSpec
	// Workload, when it declares cohorts, replaces the anonymous
	// arrival stream with the tenancy package's merged multi-client
	// stream at RatePerSec aggregate: per-cohort rate fractions, SLO
	// classes and arrival processes, with per-class latency digests in
	// the result. nil (omitted from JSON, keeping workload-free shard
	// fingerprints stable) leaves the run byte-identical to the
	// pre-tenancy engine. Mutually exclusive with Trace.
	Workload *tenancy.Spec `json:",omitempty"`

	// forceTrace marks a sharded sub-run as trace-driven even when its
	// trace slice is empty (a parent trace with fewer arrivals than
	// shards leaves some shards empty): the empty slice means "no
	// arrivals", not "fall back to Poisson".
	forceTrace bool
	// shardApps carries a sharded sub-run's pre-drawn application
	// sequence, index-aligned with Trace: the parent draws the apps for
	// its whole trace from its own seed and deals them round-robin with
	// the offsets, so a trace-driven shard replays exactly the
	// (time, app) pairs the unsharded engine would have injected. nil
	// draws from Seed per arrival as usual.
	shardApps []*workloads.App
	// shardStride/shardPhase deal a Poisson stream: the sub-run walks
	// the parent's full (gap, app) draw sequence from Seed and keeps
	// only arrivals whose index is congruent to shardPhase mod
	// shardStride. The shard fleet collectively replays the identical
	// Poisson realization the unsharded engine injects, with O(1)
	// arrival state per shard. shardStride 0 keeps every arrival.
	shardStride int
	shardPhase  int
	// shardCk carries the campaign checkpoint context into the sharded
	// engine, which persists per-shard results so a resumed run re-runs
	// only missing shards. nil outside checkpointed campaigns.
	shardCk *shardCheckpoint
}

// ServingResult is one serving run's report: offered vs completed
// requests, throughput over the horizon, and the completion-latency
// distribution.
type ServingResult struct {
	Name       string
	Mode       Mode
	RatePerSec float64
	// Offered is the number of requests injected.
	Offered int
	// Completed is the number that finished within the horizon.
	Completed int
	// ThroughputPerSec is Completed divided by the horizon.
	ThroughputPerSec float64
	// P50, P95 and P99 are completion-latency percentiles
	// (nearest-rank over completed requests; zero when none completed).
	// Under Options.LatencyMode "sketch" they come from a GK quantile
	// sketch and carry its rank-error bound instead of being exact.
	P50, P95, P99 time.Duration
	// LatencyMode is LatencySketch when the percentiles are
	// sketch-backed; empty in the exact default, keeping exact-mode
	// JSON byte-identical to pre-sketch output.
	LatencyMode string `json:",omitempty"`
	// MeanHostLoad is the scheduler host's average multiprogramming
	// level over the horizon — the x86LOAD the thresholds react to.
	MeanHostLoad float64
	// Policy is the placement policy the run's scheduler fleet used.
	Policy string
	// Sched aggregates the scheduler fleet's counters over the run —
	// per-target decisions plus the reconfiguration outcome split
	// (started / skipped-because-pending / deferred-all-busy).
	Sched sched.Stats
	// FPGAReconfigs is the total number of image downloads the device
	// fleet performed, from any path (scheduler, preconfiguration,
	// affinity preload) — the churn the affinity policy cuts.
	FPGAReconfigs int
	// Faults is the resilience report of a fault-injected run; nil on
	// fault-free runs (omitted from JSON, keeping fault-free reports
	// byte-identical to pre-fault output).
	Faults *FaultResult `json:",omitempty"`
	// Overload is the admission policy of an admission-controlled run
	// (elastic.Drop, RejectFast or DegradeToCPU); empty when admission
	// is disabled, omitting every overload field from JSON and keeping
	// such reports byte-identical to pre-elastic output.
	Overload string `json:",omitempty"`
	// Shed counts arrivals refused at the entry nodes (drop and
	// reject-fast); they are offered but never complete.
	Shed int `json:",omitempty"`
	// Degraded counts over-cap arrivals admitted at the degraded
	// CPU-only service class (degrade-to-cpu).
	Degraded int `json:",omitempty"`
	// GoodputPerSec is the rate of full-fidelity completions —
	// completed requests that were not degraded — over the horizon.
	// Only reported when admission control is enabled.
	GoodputPerSec float64 `json:",omitempty"`
	// Elastic is the autoscaler's fleet-size report; nil when the
	// control loop is disabled.
	Elastic *elastic.Result `json:",omitempty"`
	// Tenancy is the per-class and per-cohort report of a
	// workload-driven run; nil without a workload (omitted from JSON,
	// keeping workload-free reports byte-identical to pre-tenancy
	// output).
	Tenancy *TenancyResult `json:",omitempty"`
}

// arrival is one pre-drawn request: when it enters and what it runs.
type arrival struct {
	at  time.Duration
	app *workloads.App
}

// arrivals pre-draws the whole request stream so the simulation's
// outcome is a pure function of the config, independent of execution
// order.
func (cfg ServingConfig) arrivals(pool []*workloads.App) ([]arrival, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("exper: serving %q: non-positive duration %v", cfg.Name, cfg.Duration)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("exper: serving %q: empty application pool", cfg.Name)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []arrival
	if len(cfg.Trace) > 0 || cfg.forceTrace {
		for i, at := range cfg.Trace {
			if at < 0 {
				return nil, fmt.Errorf("exper: serving %q: negative trace offset %v", cfg.Name, at)
			}
			if at >= cfg.Duration {
				continue
			}
			if cfg.shardApps != nil {
				out = append(out, arrival{at: at, app: cfg.shardApps[i]})
			} else {
				out = append(out, arrival{at: at, app: pool[rng.Intn(len(pool))]})
			}
		}
		// Lazy injection chains arrivals in slice order, so the slice
		// must be time-ordered; traces may not be. The stable sort
		// keeps same-instant entries in trace order — the order the
		// eager injector processed them in.
		sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
		return out, nil
	}
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("exper: serving %q: non-positive rate %v", cfg.Name, cfg.RatePerSec)
	}
	var t time.Duration
	for idx := 0; ; idx++ {
		gap := rng.ExpFloat64() / cfg.RatePerSec
		t += time.Duration(gap * float64(time.Second))
		if t >= cfg.Duration {
			return out, nil
		}
		app := pool[rng.Intn(len(pool))]
		if cfg.shardStride == 0 || idx%cfg.shardStride == cfg.shardPhase {
			out = append(out, arrival{at: t, app: app})
		}
	}
}

// arrivalSource yields the request stream one arrival instant at a
// time: next returns the instant, every request arriving at it (the
// returned slice is only valid until the following next call), and
// ok=false at end of stream. offered reports how many requests the
// source has yielded so far.
type arrivalSource interface {
	next() (at time.Duration, apps []*workloads.App, ok bool)
	offered() int
}

// sliceSource replays a pre-drawn arrival slice, grouping runs of
// equal instants — the exact-mode source, byte-identical to the eager
// per-request walk it replaces.
type sliceSource struct {
	reqs  []arrival
	i     int
	batch []*workloads.App
}

func (s *sliceSource) next() (time.Duration, []*workloads.App, bool) {
	if s.i >= len(s.reqs) {
		return 0, nil, false
	}
	at := s.reqs[s.i].at
	s.batch = s.batch[:0]
	for ; s.i < len(s.reqs) && s.reqs[s.i].at == at; s.i++ {
		s.batch = append(s.batch, s.reqs[s.i].app)
	}
	return at, s.batch, true
}

func (s *sliceSource) offered() int { return s.i }

// poissonSource draws the Poisson stream lazily, one arrival ahead of
// the simulation clock, in exactly the RNG order arrivals() pre-draws
// it (gap, then application, per arrival; the arrival past the horizon
// consumes only its gap). A million-request cell therefore sees the
// same stream as the exact path while holding O(1) arrival state.
type poissonSource struct {
	rng     *rand.Rand
	rate    float64
	horizon time.Duration
	pool    []*workloads.App
	// stride/phase deal the stream for a sharded sub-run: every draw
	// advances the full parent sequence but only arrivals with index
	// congruent to phase mod stride are yielded (stride 0: all).
	stride int
	phase  int

	t       time.Duration
	idx     int
	primed  bool
	more    bool
	nextAt  time.Duration
	nextApp *workloads.App
	n       int
	batch   []*workloads.App
}

// draw advances the stream to its next kept arrival; ok=false past the
// horizon. The horizon-crossing arrival consumes only its gap.
func (s *poissonSource) draw() (time.Duration, *workloads.App, bool) {
	for {
		gap := s.rng.ExpFloat64() / s.rate
		s.t += time.Duration(gap * float64(time.Second))
		if s.t >= s.horizon {
			return 0, nil, false
		}
		app := s.pool[s.rng.Intn(len(s.pool))]
		idx := s.idx
		s.idx++
		if s.stride == 0 || idx%s.stride == s.phase {
			return s.t, app, true
		}
	}
}

func (s *poissonSource) next() (time.Duration, []*workloads.App, bool) {
	if !s.primed {
		s.primed = true
		s.nextAt, s.nextApp, s.more = s.draw()
	}
	if !s.more {
		return 0, nil, false
	}
	at := s.nextAt
	s.batch = append(s.batch[:0], s.nextApp)
	// One-arrival look-ahead folds same-instant arrivals (gaps that
	// round to zero) into one batch, as the Feed contract requires.
	for {
		a, app, ok := s.draw()
		if !ok {
			s.more = false
			break
		}
		if a != at {
			s.nextAt, s.nextApp = a, app
			break
		}
		s.batch = append(s.batch, app)
	}
	s.n += len(s.batch)
	return at, s.batch, true
}

func (s *poissonSource) offered() int { return s.n }

// source builds the run's arrival source: pre-drawn (exact mode, and
// always for traces — they are explicit and already materialised) or
// streaming (sketch mode), with identical validation and an identical
// resulting stream either way.
func (cfg ServingConfig) source(pool []*workloads.App, sketch bool) (arrivalSource, error) {
	if !sketch || len(cfg.Trace) > 0 || cfg.forceTrace {
		reqs, err := cfg.arrivals(pool)
		if err != nil {
			return nil, err
		}
		return &sliceSource{reqs: reqs}, nil
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("exper: serving %q: non-positive duration %v", cfg.Name, cfg.Duration)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("exper: serving %q: empty application pool", cfg.Name)
	}
	if cfg.RatePerSec <= 0 {
		return nil, fmt.Errorf("exper: serving %q: non-positive rate %v", cfg.Name, cfg.RatePerSec)
	}
	return &poissonSource{
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		rate:    cfg.RatePerSec,
		horizon: cfg.Duration,
		pool:    pool,
		stride:  cfg.shardStride,
		phase:   cfg.shardPhase,
	}, nil
}

// RunServing executes one open-loop serving run. It is a thin adapter
// over RunCampaign: the config becomes a one-cell campaign, so the
// serving engine has exactly one execution path.
func RunServing(arts *Artifacts, cfg ServingConfig) (ServingResult, error) {
	rep, err := RunCampaign(arts, CampaignSpec{Cells: []CellSpec{{Kind: KindServing, servingCfg: &cfg}}}, RunOpts{})
	if err != nil {
		return ServingResult{}, err
	}
	return *rep.Cells[0].Serving, nil
}

// runServing is the serving engine behind the RunServing adapter and
// the campaign runner's serving/policy-comparison cells. Cells with
// Opts.Shards > 1 route to the sharded engine (sharded.go); everything
// else — including shards=1 — takes the single-timeline path below,
// byte-identical to the pre-shard engine.
func runServing(arts *Artifacts, cfg ServingConfig) (ServingResult, error) {
	if cfg.Name == "" {
		cfg.Name = cfg.Topo.Name
	}
	if cfg.Opts.Shards > 1 {
		return runServingSharded(arts, cfg)
	}
	res, _, _, err := runServingCore(arts, cfg, true)
	return res, err
}

// debugServingStep, when set (tests only), runs after every event of
// a serving timeline up to its horizon, with the cell's platform — the
// invariant tests' view of the engine between events.
var debugServingStep func(p *Platform)

// runServingCore executes one serving timeline and returns the sealed
// latency digest — plus the per-class digests of a workload-driven
// run — alongside the result, so the sharded reducer can merge
// per-shard distributions. sink gates the exact-mode test sink:
// sharded sub-runs suppress it and the reducer emits one merged
// distribution under the cell's own name.
func runServingCore(arts *Artifacts, cfg ServingConfig, sink bool) (ServingResult, *latDigest, *tenantDigests, error) {
	opts := cfg.Opts
	opts.Policy = resolvePolicy(cfg.Policy, opts.Policy)
	sketch, err := parseLatencyMode(opts.LatencyMode)
	if err != nil {
		return ServingResult{}, nil, nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
	}
	var src arrivalSource
	var ten *tenantRun
	if cfg.Workload.Enabled() {
		ten, err = newTenantRun(&cfg, arts.Apps, sketch)
		if err != nil {
			return ServingResult{}, nil, nil, err
		}
		src = ten.src
	} else {
		src, err = cfg.source(arts.Apps, sketch)
		if err != nil {
			return ServingResult{}, nil, nil, err
		}
	}
	p, err := NewPlatformTopo(arts, cfg.Topo, opts)
	if err != nil {
		return ServingResult{}, nil, nil, err
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(); err != nil {
			return ServingResult{}, nil, nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
		}
		rt, err := newFaultRuntime(p, cfg.Faults, cfg.Seed, cfg.Duration, sketch)
		if err != nil {
			return ServingResult{}, nil, nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
		}
		p.faults = rt
	}
	if cfg.Admission.Enabled() || cfg.Autoscaler.Enabled() {
		// Installed after the fault runtime: fault events are already
		// scheduled, so one landing exactly on an epoch boundary fires
		// before that epoch's sample (same-instant ties go to the
		// earlier-scheduled event).
		rt, err := newElasticRuntime(p, cfg.Admission, cfg.Autoscaler, cfg.Duration)
		if err != nil {
			return ServingResult{}, nil, nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
		}
		p.elastic = rt
	}
	res := ServingResult{Name: cfg.Name, Mode: cfg.Mode, RatePerSec: cfg.RatePerSec, Policy: p.PolicyName()}
	if sketch {
		res.LatencyMode = LatencySketch
	}
	lat := newLatDigest(sketch)
	// A request placed on a node becomes visible in the node's run
	// queue only when its launch event executes, which is after every
	// arrival event of the same instant. Each placement therefore
	// counts in the entry index until its instant's batch ends, so a
	// burst of simultaneous arrivals spreads across the fleet instead
	// of piling onto one node; placed lists them for the undo.
	var placed []*cluster.Node
	// Arrivals are injected lazily through simtime.Feed: one injector
	// event per distinct arrival instant places every request of that
	// instant and then pulls the next instant from the source, so the
	// simulator's event heap holds O(in-flight) entries instead of the
	// whole campaign's O(total requests) — and in sketch mode the
	// Poisson stream itself is never materialised, so at cluster scale
	// a million-request cell's working set stays bounded. Batching an
	// instant into one event keeps the eager injector's same-instant
	// order: every placement of the instant happens before any of its
	// launch events executes, which the same-instant placement count
	// relies on to spread a burst (chaining arrivals one event each
	// would let the first launches interleave from the third
	// same-instant arrival on). One ordering edge differs from eager injection — an
	// unrelated event whose firing time lands on exactly an arrival
	// instant's nanosecond now wins the tie; DESIGN.md §7 scopes the
	// determinism contract accordingly.
	complete := func(run RunResult) {
		lat.add(run.Elapsed())
		if p.faults != nil {
			p.faults.observeClass(run.App, run.Elapsed())
		}
	}
	if ten != nil {
		ten.bind(complete)
	}
	inject := func(apps []*workloads.App) {
		now := p.Sim.Now()
		for j, app := range apps {
			// A workload-driven run routes each request's completion to
			// its cohort's closure (per-class digest and deadline
			// accounting on top of the shared complete) and carries the
			// cohort's SLO class into the scheduler's placement context.
			done, class := complete, ""
			if ten != nil {
				coh := ten.src.batchCoh[j]
				done, class = ten.done[coh], ten.classOf[coh]
			}
			// Entry balancing: the front end places each arriving
			// request on the least-loaded x86 node at its arrival
			// instant (ties toward the lower index — deterministic),
			// the request-serving analogue of RDA's client
			// multiplexing over a server fleet.
			entry := p.leastLoadedX86()
			if p.elastic.overCap(entry) {
				// Even the least-loaded eligible entry node is at the
				// admission cap: shed the request, or admit it at the
				// degraded CPU-only service class.
				if p.elastic.refuse(entry) {
					continue
				}
				p.addEntryLoad(entry, 1)
				placed = append(placed, entry)
				p.elastic.launchDegraded(entry, app, now, done)
				continue
			}
			p.addEntryLoad(entry, 1)
			placed = append(placed, entry)
			p.LaunchAppOnClass(entry, app, cfg.Mode, class, now, done)
		}
		// Each Feed batch is a distinct instant: the next one starts
		// with no same-instant placements.
		for _, n := range placed {
			p.addEntryLoad(n, -1)
		}
		placed = placed[:0]
	}
	// Feed fires each returned callback before pulling the next instant,
	// so one pending-batch slot (and one injector closure, reused for
	// every instant) carries the whole stream — no per-instant closure.
	var pending []*workloads.App
	injectPending := func() { inject(pending) }
	p.Sim.Feed(func() (time.Duration, func(), bool) {
		at, apps, ok := src.next()
		if !ok {
			return 0, nil, false
		}
		pending = apps
		return at, injectPending, true
	})
	if debugServingStep != nil {
		for p.Sim.StepUntil(cfg.Duration) {
			debugServingStep(p)
		}
	}
	p.RunFor(cfg.Duration)
	res.Offered = src.offered()
	res.Completed = lat.count()
	res.ThroughputPerSec = float64(res.Completed) / cfg.Duration.Seconds()
	lat.seal()
	res.P50 = lat.percentile(50)
	res.P95 = lat.percentile(95)
	res.P99 = lat.percentile(99)
	res.MeanHostLoad = p.Cluster.X86.Pool.JobSeconds() / cfg.Duration.Seconds()
	res.Sched = p.SchedStats()
	res.FPGAReconfigs = p.DeviceReconfigs()
	if p.faults != nil {
		res.Faults = p.faults.finalize(res.Offered, res.Completed)
	}
	if p.elastic != nil {
		p.elastic.finalize(&res, cfg.Duration)
	}
	var tdigs *tenantDigests
	if ten != nil {
		res.Tenancy = ten.finalize()
		tdigs = ten.digests()
	}
	if sink && testLatencySink != nil && !sketch {
		testLatencySink(cfg.Name, "latency", lat.exact)
		if p.faults != nil {
			p.faults.sinkExact(cfg.Name)
		}
		if ten != nil {
			ten.sinkExact(cfg.Name)
		}
	}
	return res, lat, tdigs, nil
}

// RunServingSweep fans a serving campaign across the worker pool: each
// config is an isolated simulation, results land in config order, and
// a fixed seed yields byte-identical output regardless of GOMAXPROCS.
// It is a thin adapter over RunCampaign with one serving cell per
// config.
func RunServingSweep(arts *Artifacts, cfgs []ServingConfig) ([]ServingResult, error) {
	if len(cfgs) == 0 {
		return make([]ServingResult, 0), nil
	}
	cells := make([]CellSpec, len(cfgs))
	for i := range cfgs {
		cfg := cfgs[i]
		cells[i] = CellSpec{Kind: KindServing, servingCfg: &cfg}
	}
	rep, err := RunCampaign(arts, CampaignSpec{Cells: cells}, RunOpts{})
	if err != nil {
		return nil, err
	}
	out := make([]ServingResult, len(rep.Cells))
	for i, c := range rep.Cells {
		out[i] = *c.Serving
	}
	return out, nil
}

// percentile is the nearest-rank percentile of an ascending-sorted
// latency slice: the sample at rank ceil(pct/100 · n), with the rank
// clamped to [1, n].
//
// Edge conventions (pinned by TestPercentileNearestRank):
//   - an empty (or nil) slice reports 0 for every pct;
//   - a single sample is every percentile of itself;
//   - pct=0 (and any negative pct) clamps to rank 1, the minimum —
//     nearest-rank has no rank-0 sample;
//   - pct=100 is exactly rank n, the maximum, and larger pct values
//     clamp to it.
//
// The sketch-backed digest (latDigest) and the quantile package's
// Quantile use the same ceil(q·n) rank so exact and sketch modes
// answer the same rank query, differing only by the sketch's bounded
// rank error.
func percentile(sorted []time.Duration, pct int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (pct*len(sorted) + 99) / 100 // ceil(pct/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
