package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/threshold"
	"xartrek/internal/exper"
	"xartrek/internal/quantile"
	"xartrek/internal/simtime"
	"xartrek/internal/tenancy"
	"xartrek/internal/workloads"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the traced run's spans in memory; a nil tracer records
// nothing, so untraced code paths share the same calls.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Name: name, StartUS: t.since()})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].EndUS = t.since()
		t.open = t.open[:len(t.open)-1]
	}
}

func (t *tracer) since() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// durations lists the lengths in microseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.EndUS-s.StartUS)
		}
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// platformOpts resolves the options and artifact set the cell's
// platforms are built with.
func (s *setup) platformOpts() (*exper.Artifacts, exper.Options) {
	var opts exper.Options
	if s.cell.Options != nil {
		opts = *s.cell.Options
	}
	if s.cell.Policy != "" {
		opts.Policy = s.cell.Policy
	}
	arts := s.arts
	if s.split != nil {
		arts = s.split
	}
	return arts, opts
}

// shards is the cell's shard count (1 when unsharded).
func (s *setup) shards() int {
	if s.cell.Options != nil && s.cell.Options.Shards > 1 {
		return s.cell.Options.Shards
	}
	return 1
}

// buildPlatforms materialises the cell's fleet the way the serving
// engine does: the topology, its partition at the cell's shard count,
// and one platform per (sub-)topology. It returns the first shard's
// sub-topology, which the replays run on.
func buildPlatforms(s *setup, tr *tracer) (cluster.Topology, error) {
	end := tr.begin("exper.TopologySpec.Build")
	topo, err := s.cell.Topology.Build()
	end()
	if err != nil {
		return cluster.Topology{}, err
	}
	end = tr.begin("cluster.PartitionTopology")
	parts, err := cluster.PartitionTopology(topo, s.shards())
	end()
	if err != nil {
		return cluster.Topology{}, err
	}
	arts, opts := s.platformOpts()
	for _, part := range parts {
		end = tr.begin("exper.NewPlatformTopo")
		_, err := exper.NewPlatformTopo(arts, part, opts)
		end()
		if err != nil {
			return cluster.Topology{}, err
		}
	}
	return parts[0], nil
}

// request is one entry of the workload's application mix.
type request struct {
	app   *workloads.App
	class string
}

// requestMix is the cell's mix: every cohort's apps with its class, or
// the whole application pool for an anonymous Poisson stream.
func (s *setup) requestMix() ([]request, error) {
	arts, _ := s.platformOpts()
	if !s.cell.Workload.Enabled() {
		out := make([]request, len(arts.Apps))
		for i, a := range arts.Apps {
			out[i] = request{app: a}
		}
		return out, nil
	}
	byName := map[string]*workloads.App{}
	for _, a := range arts.Apps {
		byName[a.Name] = a
	}
	var out []request
	for _, c := range s.cell.Workload.Cohorts {
		for _, share := range c.Apps {
			a, ok := byName[share.Name]
			if !ok {
				return nil, fmt.Errorf("cohort %s: unknown app %s", c.ID, share.Name)
			}
			out = append(out, request{app: a, class: c.Class})
		}
	}
	return out, nil
}

// streamArrivals replays the cell's cohort stream at seed through
// tenancy.NewStream and Next, returning the arrival count and the time
// taken; 0 arrivals for a cell without a workload.
func (s *setup) streamArrivals(seed int64) (int, time.Duration, error) {
	if !s.cell.Workload.Enabled() {
		return 0, 0, nil
	}
	t0 := time.Now()
	st, err := tenancy.NewStream(tenancy.StreamConfig{
		Spec:       s.cell.Workload,
		RatePerSec: s.cell.Rate,
		Horizon:    time.Duration(s.cell.Duration),
		Seed:       seed,
		PoolSize:   len(s.arts.Apps),
	})
	if err != nil {
		return 0, 0, err
	}
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
	}
	return n, time.Since(t0), nil
}

// replayBudget bounds each timed replay loop.
const replayBudget = 150 * time.Millisecond

// replays times single layers in isolation on a platform built like
// the cell's, writing their metrics into m. hostLoad is the cell's
// mean host load.
func replays(s *setup, topo cluster.Topology, seed int64, hostLoad float64, tr *tracer, m map[string]float64) error {
	defer tr.begin("replays")()
	arts, opts := s.platformOpts()
	mode, err := exper.ParseMode(s.cell.Mode)
	if err != nil {
		return err
	}
	mix, err := s.requestMix()
	if err != nil {
		return err
	}

	// One request per app of the mix through the whole lifecycle,
	// drained event by event.
	end := tr.begin("exper.Platform.LaunchAppOnClass")
	p, err := exper.NewPlatformTopo(arts, topo, opts)
	if err != nil {
		return err
	}
	for p.Sim.Step() { // start-up events such as image preloads
	}
	reqs, events := 0, 0
	t0 := time.Now()
	for reqs == 0 || time.Since(t0) < replayBudget {
		for _, r := range mix {
			p.LaunchAppOnClass(p.Cluster.X86, r.app, mode, r.class, p.Sim.Now(), nil)
			for p.Sim.Step() {
				events++
			}
			reqs++
		}
	}
	m["exper.lifecycle_us"] = float64(time.Since(t0)) / float64(time.Microsecond) / float64(reqs)
	m["exper.lifecycle_events"] = float64(events) / float64(reqs)
	end()

	// Algorithm 2 decisions and Algorithm 1 reports over the mix.
	end = tr.begin("sched.Server.DecideClass")
	p, err = exper.NewPlatformTopo(arts, topo, opts)
	if err != nil {
		return err
	}
	var targets []threshold.Target
	var order []request
	t0 = time.Now()
	for len(targets) == 0 || time.Since(t0) < replayBudget {
		for _, r := range mix {
			if !r.app.Migratable {
				continue
			}
			d, err := p.Server.DecideClass(r.app.Name, r.app.KernelName, r.class)
			if err != nil {
				return err
			}
			targets = append(targets, d.Target)
			order = append(order, r)
		}
		if len(order) == 0 {
			return fmt.Errorf("workload mix has no migratable app")
		}
	}
	m["sched.decide_ns"] = float64(time.Since(t0)) / float64(len(targets))
	end()
	end = tr.begin("sched.Server.Report")
	t0 = time.Now()
	for i, r := range order {
		if _, err := p.Server.Report(r.app.Name, targets[i], r.app.X86KernelTime()); err != nil {
			return err
		}
	}
	m["sched.report_ns"] = float64(time.Since(t0)) / float64(len(order))
	end()

	// Processor-sharing churn with the cell's mean host load resident:
	// each completion submits the next job.
	end = tr.begin("simtime.PSServer.Submit")
	load := int(math.Round(hostLoad))
	if load < 1 {
		load = 1
	}
	done := 0
	t0 = time.Now()
	for done == 0 || time.Since(t0) < replayBudget {
		sim := simtime.New()
		ps := simtime.NewPSServer(sim, float64(topo.Nodes[0].Cores))
		const jobs = 20000
		issued := 0
		var next func()
		next = func() {
			done++
			if issued < jobs {
				issued++
				ps.SubmitTransient(time.Duration(1+issued%5)*time.Millisecond, next)
			}
		}
		for issued < load {
			issued++
			ps.SubmitTransient(time.Duration(1+issued%5)*time.Millisecond, next)
		}
		for sim.Step() {
		}
	}
	m["simtime.psserver_ns"] = float64(time.Since(t0)) / float64(done)
	end()

	// Event engine: schedule one event and step to it.
	end = tr.begin("simtime.Simulator.At")
	sim := simtime.New()
	noop := func() {}
	steps := 0
	t0 = time.Now()
	for steps == 0 || time.Since(t0) < replayBudget {
		for i := 0; i < 10000; i++ {
			sim.At(sim.Now()+time.Microsecond, noop)
			sim.Step()
		}
		steps += 10000
	}
	m["simtime.event_ns"] = float64(time.Since(t0)) / float64(steps)
	end()

	replayDigest(s, seed, tr, m)

	end = tr.begin("tenancy.Stream.Next")
	n, took, err := s.streamArrivals(seed)
	end()
	if err != nil {
		return err
	}
	m["tenancy.arrivals"] = float64(n)
	m["tenancy.next_ns"] = 0
	if n > 0 {
		m["tenancy.next_ns"] = float64(took) / float64(n)
	}

	m["faults.timeline_ms"], m["faults.events"] = 0, 0
	if f := s.cell.Faults; f != nil && !f.Empty() {
		end = tr.begin("faults.Spec.Timeline")
		var durs []float64
		for i := 0; i < 5; i++ {
			t0 = time.Now()
			evs, err := f.Timeline(seed, time.Duration(s.cell.Duration))
			if err != nil {
				return err
			}
			durs = append(durs, float64(time.Since(t0))/float64(time.Millisecond))
			m["faults.events"] = float64(len(evs))
		}
		m["faults.timeline_ms"] = median(durs)
		end()
	}
	return nil
}

// replayDigest times the latency digest on seeded latency-like samples:
// sketch Add for sketch cells, append plus the final sort for exact
// ones, and a K-way quantile.Merged over the cell's shard count.
func replayDigest(s *setup, seed int64, tr *tracer, m map[string]float64) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(math.Exp(rng.NormFloat64()) * float64(time.Second))
	}
	end := tr.begin("quantile.Sketch.Add")
	t0 := time.Now()
	if s.cell.Options != nil && s.cell.Options.LatencyMode == exper.LatencySketch {
		sk := quantile.New(quantile.DefaultEpsilon)
		for _, v := range vals {
			sk.Add(v)
		}
	} else {
		var exact []time.Duration
		for _, v := range vals {
			exact = append(exact, time.Duration(v))
		}
		sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	}
	m["quantile.add_ns"] = float64(time.Since(t0)) / n
	end()

	end = tr.begin("quantile.Merged")
	k := s.shards()
	sks := make([]*quantile.Sketch, k)
	for i := range sks {
		sks[i] = quantile.New(quantile.DefaultEpsilon)
	}
	for i, v := range vals {
		sks[i%k].Add(v)
	}
	var durs []float64
	for i := 0; i < 9; i++ {
		t0 = time.Now()
		quantile.Merged(quantile.DefaultEpsilon, sks...)
		durs = append(durs, float64(time.Since(t0))/float64(time.Microsecond))
	}
	m["quantile.merge_us"] = median(durs)
	end()
}

// layerMetrics assembles the traced run's per-layer metrics from the
// cells, the spans and the replays.
func layerMetrics(untraced, traced []*cellRun, tr *tracer, m map[string]float64) error {
	var samples []sample
	var cpu time.Duration
	offered := 0.0
	for _, c := range traced {
		ss, err := decodeProfile(c.profile)
		if err != nil {
			return err
		}
		samples = append(samples, ss...)
		cpu += c.cpu
		offered += c.offered()
	}
	byLayer, total := foldProfile(samples)
	if total == 0 {
		return fmt.Errorf("the traced cells' CPU profile holds no samples")
	}
	nsPerReq := float64(cpu) / offered
	for _, l := range layers {
		share := float64(byLayer[l]) / float64(total)
		m[l+".cpu_share"] = share
		m[l+".ns_per_req"] = share * nsPerReq
	}

	procs := float64(runtime.GOMAXPROCS(0))
	m["par.cpu_utilisation"] = medianOf(untraced, func(c *cellRun) float64 {
		return c.cpu.Seconds() / (c.wall.Seconds() * procs)
	})
	m["runtime.gc_cycles"] = medianOf(untraced, func(c *cellRun) float64 { return float64(c.gcs) })
	m["runtime.bytes_per_req"] = medianOf(untraced, func(c *cellRun) float64 { return float64(c.bytes) / c.offered() })
	m["trace.overhead_frac"] = medianOf(traced, wallSeconds)/medianOf(untraced, wallSeconds) - 1

	r := untraced[0].res
	m["exper.offered"] = float64(r.Offered)
	m["exper.completed"] = float64(r.Completed)
	m["exper.fail_frac"] = float64(r.Offered-r.Completed) / float64(r.Offered)
	m["exper.mean_host_load"] = r.MeanHostLoad
	st := r.Sched
	m["sched.decisions"] = float64(st.Requests)
	m["sched.to_x86"] = float64(st.ToX86)
	m["sched.to_arm"] = float64(st.ToARM)
	m["sched.to_fpga"] = float64(st.ToFPGA)
	m["sched.reconfigs_started"] = float64(st.ReconfigsStarted)
	m["sched.reconfigs_skipped_pending"] = float64(st.ReconfigsSkippedPending)
	m["sched.reconfigs_all_busy"] = float64(st.ReconfigsAllBusy)
	attempts := st.ReconfigsStarted + st.ReconfigsSkippedPending + st.ReconfigsAllBusy
	m["sched.reconfig_useful_frac"] = finite(float64(st.ReconfigsStarted) / float64(attempts))
	m["fpga.reconfigs"] = float64(r.FPGAReconfigs)
	m["elastic.shed"] = float64(r.Shed)
	for _, k := range []string{"faults.disrupted", "faults.retried", "faults.lost", "faults.fpga_fallbacks", "faults.retry_success_frac"} {
		m[k] = 0
	}
	if f := r.Faults; f != nil {
		m["faults.disrupted"] = float64(f.RequestsDisrupted)
		m["faults.retried"] = float64(f.RequestsRetried)
		m["faults.lost"] = float64(f.RequestsLost)
		m["faults.fpga_fallbacks"] = float64(f.FPGAFallbacks)
		m["faults.retry_success_frac"] = finite(float64(f.RequestsDisrupted-f.RequestsLost) / float64(f.RequestsDisrupted))
	}

	spanMS := func(name string) float64 { return median(tr.durations(name)) / 1000 }
	m["exper.artifacts_ms"] = spanMS("exper.BuildArtifacts") + spanMS("exper.BuildArtifactsSplitImages")
	m["exper.spec_us"] = (spanMS("exper.ParseCampaign") + spanMS("exper.CampaignSpec.Expand")) * 1000
	m["cluster.topology_ms"] = spanMS("exper.TopologySpec.Build")
	m["cluster.partition_ms"] = spanMS("cluster.PartitionTopology")
	builds := tr.durations("exper.NewPlatformTopo")
	reps := len(tr.durations("cluster.PartitionTopology"))
	sum := 0.0
	for _, d := range builds {
		sum += d
	}
	m["exper.platform_build_ms"] = sum / 1000 / float64(reps)
	return nil
}

func wallSeconds(c *cellRun) float64 { return c.wall.Seconds() }
