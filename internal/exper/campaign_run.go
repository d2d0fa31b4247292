package exper

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/par"
	"xartrek/internal/workloads"
)

// CellResult is the unified per-cell report: common identity fields, a
// flat numeric metrics map (stable across kinds, for generic tooling),
// and the kind's typed payload (exactly one of Serving, Set,
// Throughput, Waves is non-nil).
type CellResult struct {
	// Index is the cell's position in the expanded campaign; results
	// and streamed progress are always in index order.
	Index int `json:"index"`
	// Name, Kind, Topology, Mode, Policy, RatePerSec and Seed identify
	// the cell; fields that do not apply to the kind are zero.
	Name       string  `json:"name,omitempty"`
	Kind       string  `json:"kind"`
	Topology   string  `json:"topology,omitempty"`
	Mode       string  `json:"mode,omitempty"`
	Policy     string  `json:"policy,omitempty"`
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	// Metrics flattens the payload's headline numbers (counts, ms
	// percentiles, throughputs) for kind-agnostic consumers.
	Metrics map[string]float64 `json:"metrics"`

	Serving    *ServingResult    `json:"serving,omitempty"`
	Set        *SetResult        `json:"set,omitempty"`
	Throughput *ThroughputResult `json:"throughput,omitempty"`
	Waves      *WaveResult       `json:"waves,omitempty"`
	Knee       *KneeResult       `json:"knee,omitempty"`
}

// Report is one campaign's full output: every cell's result in
// expansion order. It serializes to JSON (map keys sorted), so a fixed
// seed makes the marshalled report byte-identical across machines.
type Report struct {
	Campaign string       `json:"campaign"`
	Cells    []CellResult `json:"cells"`
}

// RunOpts carries the execution options of RunCampaign.
type RunOpts struct {
	// BaseDir resolves relative CellSpec.TraceFile paths (typically the
	// spec file's directory); empty means the working directory.
	BaseDir string
	// OnCell, when non-nil, streams completed cells. Delivery is in
	// cell-index order — a finished cell is held until every earlier
	// cell has been delivered — so streamed output is deterministic
	// regardless of GOMAXPROCS, while still reporting progress as the
	// campaign's prefix completes. On a resumed run, checkpointed cells
	// stream first (in order), then freshly run ones.
	OnCell func(CellResult)
	// Checkpoint, when non-empty, names a directory where every
	// completed cell's result is persisted as the campaign runs (see
	// checkpoint.go). If the directory already holds a checkpoint of
	// this exact campaign, the completed cells are loaded instead of
	// recomputed and only the remainder runs — the final report is
	// byte-identical to an uninterrupted run's. A checkpoint written by
	// a different campaign is refused.
	Checkpoint string
}

// runnableCell is one fully resolved campaign cell: topology built,
// mode parsed, trace loaded, applications looked up — everything that
// can fail before simulation does so during resolution, so the
// parallel fan only executes.
type runnableCell struct {
	index int
	spec  CellSpec
	mode  Mode
	opts  Options
	topo  cluster.Topology
	trace []time.Duration
	apps  []*workloads.App
	app   *workloads.App
}

// resolveCell turns one expanded (scalar) cell spec into a runnable
// cell. traces caches loaded/generated arrival traces across the
// campaign's cells, so a grid axis over one trace_file parses the log
// once (the cached slice is shared — safe, the serving engine never
// mutates cfg.Trace).
func resolveCell(index int, spec CellSpec, arts *Artifacts, baseDir string, traces map[string][]time.Duration) (*runnableCell, error) {
	c := &runnableCell{index: index, spec: spec}
	if spec.Options != nil {
		c.opts = *spec.Options
	}
	// A cell-level policy overrides the cell's options; every kind's
	// engine takes the policy through c.opts.
	if spec.Policy != "" {
		c.opts.Policy = spec.Policy
	}
	mode, err := ParseMode(spec.Mode)
	if err != nil {
		return nil, fmt.Errorf("cell %d: %w", index, err)
	}
	c.mode = mode
	switch spec.Kind {
	case KindServing, KindPolicyComparison, KindKnee:
		if spec.Topology == nil && spec.Kind == KindPolicyComparison {
			c.topo = PolicyComparisonTopology()
		} else {
			c.topo, err = spec.Topology.Build()
			if err != nil {
				return nil, fmt.Errorf("cell %d: %w", index, err)
			}
		}
		c.trace, err = resolveTrace(spec, baseDir, traces)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", index, err)
		}
	case KindSet:
		if len(spec.Apps) > 0 {
			for _, name := range spec.Apps {
				app, err := findApp(arts.Apps, name)
				if err != nil {
					return nil, fmt.Errorf("cell %d: %w", index, err)
				}
				c.apps = append(c.apps, app)
			}
		} else {
			c.apps = RandomSet(rand.New(rand.NewSource(spec.Seed)), arts.Apps, spec.SetSize)
		}
	case KindThroughput:
		c.app, err = findApp(arts.Apps, spec.App)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", index, err)
		}
	}
	return c, nil
}

// resolveTrace materialises a serving cell's arrival trace: inline
// offsets, a recorded log file, or a generated MMPP trace. Poisson
// cells return nil. File loads and MMPP draws are memoised in the
// cache so grid expansion does not multiply the work.
func resolveTrace(spec CellSpec, baseDir string, cache map[string][]time.Duration) ([]time.Duration, error) {
	switch {
	case len(spec.Trace) > 0:
		out := make([]time.Duration, len(spec.Trace))
		for i, d := range spec.Trace {
			out[i] = time.Duration(d)
		}
		return out, nil
	case spec.TraceFile != "":
		path := spec.TraceFile
		if !filepath.IsAbs(path) && baseDir != "" {
			path = filepath.Join(baseDir, path)
		}
		key := fmt.Sprintf("file|%s|%v", path, spec.TraceRescale)
		if trace, ok := cache[key]; ok {
			return trace, nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("trace file: %w", err)
		}
		defer f.Close()
		trace, err := LoadTrace(f, spec.TraceRescale)
		if err != nil {
			return nil, fmt.Errorf("trace file %s: %w", path, err)
		}
		if len(trace) == 0 {
			// An empty trace would fall through to the Poisson branch
			// and fail later with a misleading rate error.
			return nil, fmt.Errorf("trace file %s: no arrivals", path)
		}
		cache[key] = trace
		return trace, nil
	case len(spec.MMPP) > 0:
		key := fmt.Sprintf("mmpp|%d|%v|%v", spec.Seed, spec.Duration, spec.MMPP)
		if trace, ok := cache[key]; ok {
			return trace, nil
		}
		states := make([]MMPPState, len(spec.MMPP))
		for i, s := range spec.MMPP {
			states[i] = MMPPState{RatePerSec: s.RatePerSec, MeanSojourn: time.Duration(s.MeanSojourn)}
		}
		trace, err := MMPPTrace(spec.Seed, time.Duration(spec.Duration), states)
		if err != nil {
			return nil, err
		}
		if len(trace) == 0 {
			return nil, fmt.Errorf("mmpp generated no arrivals within %v", time.Duration(spec.Duration))
		}
		cache[key] = trace
		return trace, nil
	}
	return nil, nil
}

// servingConfig is the serving run a serving-class cell describes, at
// the cell's rate. A knee cell's probes set the rate (knee cells carry
// no trace, by validation).
func (c *runnableCell) servingConfig() ServingConfig {
	spec := &c.spec
	return ServingConfig{
		Name:       spec.Name,
		Topo:       c.topo,
		Mode:       c.mode,
		RatePerSec: spec.Rate,
		Duration:   time.Duration(spec.Duration),
		Seed:       spec.Seed,
		Trace:      c.trace,
		Opts:       c.opts,
		Faults:     spec.Faults,
		Admission:  spec.Admission,
		Autoscaler: spec.Autoscaler,
		Workload:   spec.Workload,
	}
}

// header is the identity part of the cell's result, as run reports
// it and as a checkpointed result must carry it. The identity fields
// a kind does not use stay zero: only serving-class cells have a
// topology, and only serving cells a rate. An unnamed serving-class
// cell takes its topology's name, as its engine does.
func (c *runnableCell) header() CellResult {
	spec := &c.spec
	name := spec.Name
	if name == "" {
		name = c.topo.Name
	}
	return CellResult{Index: c.index, Name: name, Kind: spec.Kind, Topology: c.topo.Name,
		Mode: c.mode.String(), RatePerSec: spec.Rate, Seed: spec.Seed}
}

// checkLoaded reports why a checkpointed result cannot be this cell's:
// the first identity field that disagrees with header, missing
// metrics, a payload other than exactly the one the cell's kind
// produces, or serving percentiles kept in another latency mode. nil
// means the result is the cell's.
func (c *runnableCell) checkLoaded(r *CellResult) error {
	h := c.header()
	for _, f := range []struct {
		field      string
		have, want any
	}{
		{"name", r.Name, h.Name},
		{"kind", r.Kind, h.Kind},
		{"topology", r.Topology, h.Topology},
		{"mode", r.Mode, h.Mode},
		{"rate", r.RatePerSec, h.RatePerSec},
		{"seed", r.Seed, h.Seed},
	} {
		if f.have != f.want {
			return fmt.Errorf("holds %s %#v, want %#v", f.field, f.have, f.want)
		}
	}
	if len(r.Metrics) == 0 {
		return errors.New("holds no metrics")
	}
	own := map[string]bool{
		KindServing: r.Serving != nil, KindPolicyComparison: r.Serving != nil, KindKnee: r.Knee != nil,
		KindSet: r.Set != nil, KindThroughput: r.Throughput != nil, KindWaves: r.Waves != nil,
	}[h.Kind]
	payloads := 0
	for _, set := range []bool{r.Serving != nil, r.Knee != nil, r.Set != nil, r.Throughput != nil, r.Waves != nil} {
		if set {
			payloads++
		}
	}
	if !own || payloads != 1 {
		return fmt.Errorf("holds %d payload(s), want exactly the one a %s cell produces", payloads, h.Kind)
	}
	s := r.Serving
	if r.Knee != nil {
		s = r.Knee.AtKnee
	}
	if s != nil {
		want := ""
		if sketch, _ := parseLatencyMode(c.opts.LatencyMode); sketch { // validated with the spec
			want = LatencySketch
		}
		if s.LatencyMode != want {
			return fmt.Errorf("holds latency mode %#v, want %#v", s.LatencyMode, want)
		}
	}
	return nil
}

// run executes one resolved cell as one call of its kind's engine.
// Cells with SplitImages use the per-kernel-image artifact set.
func (c *runnableCell) run(arts, splitArts *Artifacts) (CellResult, error) {
	use := arts
	if c.spec.SplitImages {
		use = splitArts
	}
	spec := &c.spec
	res := c.header()
	switch spec.Kind {
	case KindKnee:
		r, err := runKnee(use, c)
		if err != nil {
			return CellResult{}, err
		}
		res.Policy, res.Metrics, res.Knee = r.Policy, kneeMetrics(r), &r
	case KindServing, KindPolicyComparison:
		r, err := RunServing(use, c.servingConfig())
		if err != nil {
			return CellResult{}, err
		}
		res.Policy, res.Metrics, res.Serving = r.Policy, servingMetrics(r), &r
	case KindSet:
		r, err := RunSetOpts(use, c.apps, c.mode, spec.TotalLoad, c.opts)
		if err != nil {
			return CellResult{}, err
		}
		res.Metrics, res.Set = setMetrics(r), &r
	case KindThroughput:
		r, err := RunThroughputOpts(use, c.app, c.mode, spec.Load, time.Duration(spec.Duration), spec.MaxImages, c.opts)
		if err != nil {
			return CellResult{}, err
		}
		res.Metrics, res.Throughput = throughputMetrics(r), &r
	case KindWaves:
		r, err := RunWavesOpts(use, c.mode, spec.Waves, spec.PerWave, time.Duration(spec.Interval), spec.Seed, c.opts)
		if err != nil {
			return CellResult{}, err
		}
		res.Metrics, res.Waves = wavesMetrics(r), &r
	default:
		return CellResult{}, fmt.Errorf("cell %d: unknown kind %q", c.index, spec.Kind)
	}
	return res, nil
}

// RunCampaign executes a declarative campaign: it expands the spec's
// grid axes, resolves every cell (topologies, traces, applications —
// all failures surface before any simulation starts), builds the
// split-image artifact set once if any cell asks for it, and fans the
// cells across the bounded worker pool. Results land in expansion
// order and a fixed spec yields byte-identical output regardless of
// GOMAXPROCS; RunOpts.OnCell streams completed cells in that same
// order. Each cell is one call of its kind's engine (RunServing,
// RunSetOpts, RunThroughputOpts, RunWavesOpts, or a knee search over
// RunServing).
func RunCampaign(arts *Artifacts, spec CampaignSpec, ropts RunOpts) (*Report, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	resolved := make([]*runnableCell, len(cells))
	needSplit := false
	traces := make(map[string][]time.Duration)
	for i, cs := range cells {
		rc, err := resolveCell(i, cs, arts, ropts.BaseDir, traces)
		if err != nil {
			return nil, fmt.Errorf("exper: campaign %q: %w", spec.Name, err)
		}
		resolved[i] = rc
		if cs.SplitImages {
			needSplit = true
		}
	}
	splitArts := arts
	if needSplit {
		splitArts, err = BuildArtifactsSplitImages(arts.Apps)
		if err != nil {
			return nil, err
		}
	}
	var ck *checkpoint
	var loaded []*CellResult
	if ropts.Checkpoint != "" {
		ck, loaded, err = openCheckpoint(ropts.Checkpoint, spec.Name, cells)
		if err != nil {
			return nil, fmt.Errorf("exper: campaign %q: %w", spec.Name, err)
		}
		for i, r := range loaded {
			if r == nil {
				continue
			}
			if err := resolved[i].checkLoaded(r); err != nil {
				return nil, fmt.Errorf("exper: campaign %q: checkpoint %s: cell file %s %w",
					spec.Name, ck.dir, filepath.Base(ck.cellPath(i)), err)
			}
		}
	}
	results := make([]CellResult, len(resolved))
	var mu sync.Mutex
	delivered := 0
	completed := make([]bool, len(resolved))
	for i, r := range loaded {
		if r != nil {
			results[i] = *r
			completed[i] = true
		}
	}
	deliver := func() {
		for delivered < len(completed) && completed[delivered] {
			ropts.OnCell(results[delivered])
			delivered++
		}
	}
	if ropts.OnCell != nil {
		// Stream the checkpointed prefix before any worker starts, so
		// resumed output is the same in-order cell sequence.
		deliver()
	}
	err = par.ForEach(len(resolved), func(i int) error {
		if loaded != nil && loaded[i] != nil {
			return nil
		}
		r, err := resolved[i].run(arts, splitArts)
		if err != nil {
			return fmt.Errorf("exper: campaign %q cell %d: %w", spec.Name, i, err)
		}
		if ck != nil {
			// Persist before announcing completion: a kill after this
			// point loses no finished cell.
			if err := ck.saveCell(r); err != nil {
				return fmt.Errorf("exper: campaign %q cell %d: checkpoint: %w", spec.Name, i, err)
			}
		}
		results[i] = r
		if ropts.OnCell != nil {
			mu.Lock()
			completed[i] = true
			deliver()
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{Campaign: spec.Name, Cells: results}, nil
}

// msFloat converts a latency to fractional milliseconds for the
// metrics maps.
func msFloat(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// servingMetrics flattens a serving result's headline numbers. Fault
// metrics appear only on fault-injected cells, so fault-free reports
// keep their exact pre-fault key set.
func servingMetrics(r ServingResult) map[string]float64 {
	m := map[string]float64{
		"offered":            float64(r.Offered),
		"completed":          float64(r.Completed),
		"throughput_per_sec": r.ThroughputPerSec,
		"p50_ms":             msFloat(r.P50),
		"p95_ms":             msFloat(r.P95),
		"p99_ms":             msFloat(r.P99),
		"mean_host_load":     r.MeanHostLoad,
		"sched_to_arm":       float64(r.Sched.ToARM),
		"sched_to_fpga":      float64(r.Sched.ToFPGA),
		"reconfigs_started":  float64(r.Sched.ReconfigsStarted),
		"fpga_reconfigs":     float64(r.FPGAReconfigs),
	}
	faultMetrics(m, r.Faults)
	elasticMetrics(m, r)
	tenancyMetrics(m, r)
	return m
}

// setMetrics flattens a set result.
func setMetrics(r SetResult) map[string]float64 {
	return map[string]float64{
		"set_size": float64(r.SetSize),
		"load":     float64(r.Load),
		"runs":     float64(len(r.Runs)),
		"avg_ms":   msFloat(r.Average),
	}
}

// throughputMetrics flattens a throughput result.
func throughputMetrics(r ThroughputResult) map[string]float64 {
	return map[string]float64{
		"load":           float64(r.Load),
		"images":         float64(r.Images),
		"images_per_sec": r.PerSecond,
	}
}

// wavesMetrics flattens a waves result.
func wavesMetrics(r WaveResult) map[string]float64 {
	return map[string]float64{
		"runs":      float64(r.Runs),
		"avg_ms":    msFloat(r.Average),
		"peak_load": float64(r.PeakLoad),
	}
}
