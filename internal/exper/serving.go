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
	"xartrek/internal/par"
	"xartrek/internal/simtime"
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
	// Opts carries the ablation switches and the placement policy
	// (Options.Policy).
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
	// the result. nil leaves the run byte-identical to the pre-tenancy
	// engine. Mutually exclusive with Trace.
	Workload *tenancy.Spec

	// shardStride/shardPhase deal the arrival stream to a sharded
	// sub-run: the sub-run draws the parent's whole stream and keeps
	// only arrivals whose index in it is congruent to shardPhase mod
	// shardStride, so the shard fleet collectively replays exactly the
	// stream an unsharded run injects. shardStride 0 keeps every
	// arrival.
	shardStride int
	shardPhase  int
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
	// Under Options.LatencyMode "sketch" they come from log-linear
	// histograms and lie within quantile.DefaultEpsilon of the exact
	// values instead of being exact.
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

// arrival is one request of a stream: when it enters, what it runs
// and, in a workload-driven run, which cohort issued it. pick is the
// application's index in the list it was drawn from (the cohort's mix,
// or the run's pool), which selects its completion callback.
type arrival struct {
	at     time.Duration
	app    *workloads.App
	cohort int
	pick   int
}

// arrivalGen is one kind of request stream (Poisson, trace or cohort),
// drawn one arrival at a time in nondecreasing time order; ok=false at
// end of stream.
type arrivalGen interface {
	draw() (a arrival, ok bool)
}

// poissonSource draws a Poisson stream from the run's seed: per
// arrival a gap, then an application. The arrival past the horizon
// consumes only its gap.
type poissonSource struct {
	rng     *rand.Rand
	rate    float64
	horizon time.Duration
	pool    []*workloads.App
	t       time.Duration
}

func (g *poissonSource) draw() (arrival, bool) {
	gap := g.rng.ExpFloat64() / g.rate
	g.t += time.Duration(gap * float64(time.Second))
	if g.t >= g.horizon {
		return arrival{}, false
	}
	i := g.rng.Intn(len(g.pool))
	return arrival{at: g.t, app: g.pool[i], pick: i}, true
}

// sliceSource replays a trace's arrivals, drawn and time-sorted by
// ServingConfig.source.
type sliceSource struct {
	reqs []arrival
}

func (g *sliceSource) draw() (arrival, bool) {
	if len(g.reqs) == 0 {
		return arrival{}, false
	}
	a := g.reqs[0]
	g.reqs = g.reqs[1:]
	return a, true
}

// tenantSource resolves the tenancy merged stream's arrivals to
// applications: apps[c] is cohort c's declared mix, or the run's shared
// pool for a cohort without one.
type tenantSource struct {
	stream *tenancy.Stream
	apps   [][]*workloads.App
}

func (g *tenantSource) draw() (arrival, bool) {
	a, ok := g.stream.Next()
	if !ok {
		return arrival{}, false
	}
	return arrival{at: a.At, app: g.apps[a.Cohort][a.App], cohort: a.Cohort, pick: a.App}, true
}

// arrivalStream is the serving engine's request stream for every kind
// of generator. It keeps the arrivals its shard is dealt and hands them
// out one instant at a time, holding one look-ahead arrival.
type arrivalStream struct {
	gen arrivalGen
	// stride/phase: see ServingConfig.shardStride. idx counts every
	// drawn arrival, kept or not.
	stride, phase int
	idx           int
	ahead         arrival // the next kept arrival, while more
	more          bool
	offered       int // requests yielded so far
	batch         []arrival
}

// pull draws the next arrival the shard deal keeps.
func (s *arrivalStream) pull() (arrival, bool) {
	for {
		a, ok := s.gen.draw()
		if !ok {
			return arrival{}, false
		}
		idx := s.idx
		s.idx++
		if s.stride == 0 || idx%s.stride == s.phase {
			return a, true
		}
	}
}

// next returns the next arrival instant with every kept request at it
// (the slice is only valid until the following call); ok=false at end
// of stream. Folding same-instant arrivals into one batch is what
// simtime.Feed requires.
func (s *arrivalStream) next() (time.Duration, []arrival, bool) {
	if !s.more {
		return 0, nil, false
	}
	at := s.ahead.at
	s.batch = s.batch[:0]
	for s.more && s.ahead.at == at {
		s.batch = append(s.batch, s.ahead)
		s.ahead, s.more = s.pull()
	}
	s.offered += len(s.batch)
	return at, s.batch, true
}

// source validates the run's arrival stream and builds it: the cohort
// stream of a workload-driven run (ten non-nil), a replay of Trace, or
// Poisson arrivals at RatePerSec. A trace's applications are drawn from
// Seed in trace order, dropping past-horizon offsets without a draw.
// The stream must be time-ordered and a trace need not be, so its
// arrivals are then stably sorted, keeping same-instant entries in
// trace order.
func (cfg ServingConfig) source(pool []*workloads.App, ten *tenantRun) (*arrivalStream, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("exper: serving %q: non-positive duration %v", cfg.Name, cfg.Duration)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("exper: serving %q: empty application pool", cfg.Name)
	}
	var gen arrivalGen
	switch {
	case ten != nil:
		if len(cfg.Trace) > 0 {
			return nil, fmt.Errorf("exper: serving %q: workload is incompatible with an arrival trace", cfg.Name)
		}
		stream, err := tenancy.NewStream(tenancy.StreamConfig{
			Spec:       cfg.Workload,
			RatePerSec: cfg.RatePerSec,
			Horizon:    cfg.Duration,
			Seed:       cfg.Seed,
			PoolSize:   len(pool),
		})
		if err != nil {
			return nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
		}
		gen = &tenantSource{stream: stream, apps: ten.apps}
	case len(cfg.Trace) > 0:
		rng := rand.New(rand.NewSource(cfg.Seed))
		var reqs []arrival
		for _, at := range cfg.Trace {
			if at < 0 {
				return nil, fmt.Errorf("exper: serving %q: negative trace offset %v", cfg.Name, at)
			}
			if at < cfg.Duration {
				i := rng.Intn(len(pool))
				reqs = append(reqs, arrival{at: at, app: pool[i], pick: i})
			}
		}
		sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].at < reqs[j].at })
		gen = &sliceSource{reqs: reqs}
	default:
		if !(cfg.RatePerSec > 0 && cfg.RatePerSec <= simtime.MaxRate) {
			return nil, fmt.Errorf("exper: serving %q: rate %v outside (0, %v]", cfg.Name, cfg.RatePerSec, simtime.MaxRate)
		}
		gen = &poissonSource{
			rng:     rand.New(rand.NewSource(cfg.Seed)),
			rate:    cfg.RatePerSec,
			horizon: cfg.Duration,
			pool:    pool,
		}
	}
	s := &arrivalStream{gen: gen, stride: cfg.shardStride, phase: cfg.shardPhase}
	s.ahead, s.more = s.pull()
	return s, nil
}

// RunServing executes one open-loop serving run: the serving engine,
// which the campaign runner's serving, policy-comparison and knee
// cells call too. An unnamed config takes its topology's name. The run
// is one timeline, or with Opts.Shards > 1 one per shard
// (shardConfigs). Every timeline runs as its own simulation across the
// worker pool, and reduceServing folds their parts in timeline order,
// so the output does not depend on GOMAXPROCS.
func RunServing(arts *Artifacts, cfg ServingConfig) (ServingResult, error) {
	if cfg.Name == "" {
		cfg.Name = cfg.Topo.Name
	}
	subs := []ServingConfig{cfg}
	if cfg.Opts.Shards > 1 {
		var err error
		if subs, err = shardConfigs(cfg); err != nil {
			return ServingResult{}, err
		}
	}
	parts := make([]servingPart, len(subs))
	err := par.ForEach(len(subs), func(i int) (err error) {
		parts[i], err = runServingCore(arts, subs[i])
		return err
	})
	if err != nil {
		return ServingResult{}, err
	}
	return reduceServing(cfg, parts), nil
}

// servingPart is one serving timeline's unreduced share of a run: its
// result's counters, the fault, admission and autoscaler reports, the
// per-cohort and per-class counts of a workload, and the latency
// digests reduceServing merges.
type servingPart struct {
	res ServingResult
	lat *latDigest
	// classes holds a workload-driven timeline's per-class digests, in
	// res.Tenancy.Classes order.
	classes []*latDigest
}

// reduceServing folds a run's parts, in timeline order, into its
// report: counters and scheduler stats sum, host load averages, and
// the latency digests merge and are read. It is the only code that
// computes a serving report's throughput and percentiles. The fault,
// admission and autoscaler reports are the first part's: only
// one-timeline runs carry them.
func reduceServing(cfg ServingConfig, parts []servingPart) ServingResult {
	res := parts[0].res
	res.Name = cfg.Name
	digs := []*latDigest{parts[0].lat}
	for _, p := range parts[1:] {
		res.Offered += p.res.Offered
		res.Completed += p.res.Completed
		res.MeanHostLoad += p.res.MeanHostLoad
		res.Sched.Add(p.res.Sched)
		res.FPGAReconfigs += p.res.FPGAReconfigs
		digs = append(digs, p.lat)
	}
	res.MeanHostLoad /= float64(len(parts))
	res.ThroughputPerSec = float64(res.Completed) / cfg.Duration.Seconds()
	lat := mergeLatDigests(digs)
	res.P50, res.P95, res.P99 = lat.quantiles()
	lat.sink(cfg.Name, "latency")
	res.Tenancy = reduceTenancy(cfg.Name, parts)
	return res
}

// debugServingStep, when set (tests only), runs after every event of
// a serving timeline up to its horizon, with the cell's platform — the
// invariant tests' view of the engine between events.
var debugServingStep func(p *Platform)

// testServingDone, when set (tests only), receives every serving
// timeline's platform, unreduced part and latency record at its
// horizon. Sharded sub-runs call it concurrently.
var testServingDone func(p *Platform, part servingPart, lat *timelineLat)

// runServingCore executes one serving timeline and returns its
// unreduced part.
func runServingCore(arts *Artifacts, cfg ServingConfig) (servingPart, error) {
	sketch, err := parseLatencyMode(cfg.Opts.LatencyMode)
	if err != nil {
		return servingPart{}, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
	}
	var ten *tenantRun
	classes := 0
	if cfg.Workload.Enabled() {
		ten, err = newTenantRun(&cfg, arts.Apps)
		if err != nil {
			return servingPart{}, err
		}
		classes = len(ten.classes)
	}
	faulted := cfg.Faults != nil && !cfg.Faults.Empty()
	lat := newTimelineLat(sketch, classes, arts.Apps, faulted)
	src, err := cfg.source(arts.Apps, ten)
	if err != nil {
		return servingPart{}, err
	}
	p, err := NewPlatformTopo(arts, cfg.Topo, cfg.Opts)
	if err != nil {
		return servingPart{}, err
	}
	if faulted {
		if err := cfg.Faults.Validate(); err != nil {
			return servingPart{}, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
		}
		rt, err := newFaultRuntime(p, cfg.Faults, cfg.Seed, cfg.Duration, sketch)
		if err != nil {
			return servingPart{}, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
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
			return servingPart{}, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
		}
		p.elastic = rt
	}
	res := ServingResult{Name: cfg.Name, Mode: cfg.Mode, RatePerSec: cfg.RatePerSec, Policy: p.PolicyName()}
	if sketch {
		res.LatencyMode = LatencySketch
	}
	// onDone[cohort][pick] is an arrival's completion callback, bound
	// to its latency leaf before the run starts: per cohort and
	// application of its mix in a workload-driven run, else per pool
	// application (one row, all on one leaf unless the run reports
	// per-application latencies).
	var onDone [][]func(RunResult)
	if ten != nil {
		ten.bind(lat)
		onDone = ten.done
	} else {
		row := make([]func(RunResult), len(arts.Apps))
		for i, app := range arts.Apps {
			row[i] = lat.leaf(0, app.Name).complete
		}
		onDone = [][]func(RunResult){row}
	}
	// A request placed on a node becomes visible in the node's run
	// queue only when its launch event executes, which is after every
	// arrival event of the same instant. Each placement therefore
	// counts in the entry index until its instant's batch ends, so a
	// burst of simultaneous arrivals spreads across the fleet instead
	// of piling onto one node; placed lists them for the undo. The
	// instant's last placement has no later arrival to read it and
	// takes no count, which spares nearly every Poisson instant, as it
	// holds one arrival.
	var placed []*cluster.Node
	// Arrivals are injected lazily through simtime.Feed: one injector
	// event per distinct arrival instant places every request of that
	// instant and then pulls the next instant from the source, so the
	// simulator's event heap holds O(in-flight) entries instead of the
	// whole campaign's O(total requests) — and the source draws
	// Poisson and cohort streams lazily, so at cluster scale a
	// million-request cell's arrival state stays O(1). Batching an
	// instant into one event keeps the eager injector's same-instant
	// order: every placement of the instant happens before any of its
	// launch events executes, which the same-instant placement count
	// relies on to spread a burst (chaining arrivals one event each
	// would let the first launches interleave from the third
	// same-instant arrival on). One ordering edge differs from eager injection — an
	// unrelated event whose firing time lands on exactly an arrival
	// instant's nanosecond now wins the tie; DESIGN.md §7 scopes the
	// determinism contract accordingly.
	inject := func(batch []arrival) {
		now := p.Sim.Now()
		for i, a := range batch {
			// A workload-driven run counts each request against its
			// cohort (shed ones included) and carries the cohort's SLO
			// class into the scheduler's placement context.
			done, class := onDone[a.cohort][a.pick], ""
			if ten != nil {
				ten.offered[a.cohort]++
				class = ten.classOf[a.cohort]
			}
			// Entry balancing: the front end places each arriving
			// request on the least-loaded x86 node at its arrival
			// instant (ties toward the lower index — deterministic),
			// the request-serving analogue of RDA's client
			// multiplexing over a server fleet.
			entry, mode := p.leastLoadedX86(), cfg.Mode
			if p.elastic.overCap(entry) {
				// Even the least-loaded eligible entry node is at the
				// admission cap: shed the request, or admit it at the
				// degraded service class, whose whole run executes on
				// the entry node's CPU (the fallback a failed FPGA
				// invocation takes), bypassing the scheduler and the
				// accelerator fleet.
				if p.elastic.refuse(entry) {
					continue
				}
				mode, done = ModeVanillaX86, p.elastic.countDegraded(done)
			}
			if i < len(batch)-1 {
				p.addEntryLoad(entry, 1)
				placed = append(placed, entry)
			}
			p.LaunchAppOnClass(entry, a.app, mode, class, now, done)
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
	var pending []arrival
	injectPending := func() { inject(pending) }
	p.Sim.Feed(func() (time.Duration, func(), bool) {
		at, batch, ok := src.next()
		if !ok {
			return 0, nil, false
		}
		pending = batch
		return at, injectPending, true
	})
	if debugServingStep != nil {
		for p.Sim.StepUntil(cfg.Duration) {
			debugServingStep(p)
		}
	}
	p.RunFor(cfg.Duration)
	res.Offered = src.offered
	res.Completed = lat.all.count()
	res.MeanHostLoad = p.Cluster.X86.Pool.JobSeconds() / cfg.Duration.Seconds()
	res.Sched = p.SchedStats()
	res.FPGAReconfigs = p.DeviceReconfigs()
	if p.faults != nil {
		res.Faults = p.faults.finalize(cfg.Name, res.Offered, res.Completed, lat)
	}
	if p.elastic != nil {
		p.elastic.finalize(&res, cfg.Duration)
	}
	part := servingPart{lat: lat.all}
	if ten != nil {
		res.Tenancy, part.classes = ten.finalize(lat), lat.classes
	}
	part.res = res
	if testServingDone != nil {
		testServingDone(p, part, lat)
	}
	return part, nil
}
