package exper

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/elastic"
	"xartrek/internal/faults"
	"xartrek/internal/popcorn"
	"xartrek/internal/simtime"
	"xartrek/internal/tenancy"
)

// Campaign cell kinds. Each kind names the engine a cell runs; new
// scenarios are added as spec data, not API surface.
const (
	// KindSet is a fixed-workload measurement (RunSetOpts, Figures 3-5).
	KindSet = "set"
	// KindThroughput is a multi-image face-detection throughput run
	// (RunThroughputOpts, Figure 6).
	KindThroughput = "throughput"
	// KindWaves is the periodic wave workload (RunWavesOpts, Figure 7).
	KindWaves = "waves"
	// KindServing is one open-loop serving run (RunServing).
	KindServing = "serving"
	// KindPolicyComparison is a serving run repeated once per placement
	// policy with everything else held fixed (one RunServing per
	// policy). With no explicit policy axis it expands to every
	// built-in policy on the canonical cross-rack topology.
	KindPolicyComparison = "policy-comparison"
	// KindKnee is a capacity-planning cell: it binary-searches offered
	// load for the maximum rate whose serving run meets an SLO
	// predicate (elastic.KneeSpec), per topology × mode × policy, and
	// composes with fault specs for "knee under churn".
	KindKnee = "knee"
)

// servingClass reports whether a cell kind runs the open-loop serving
// engine — the kinds that take topologies, traces (knee excepted),
// fault specs and elastic overload knobs.
func servingClass(kind string) bool {
	return kind == KindServing || kind == KindPolicyComparison || kind == KindKnee
}

// Duration is a time.Duration that serializes as its human-readable
// string form ("60s", "1m30s"). Bare JSON numbers are accepted as
// seconds on input. It is an alias of faults.Duration so campaign
// specs and the fault specs embedded in them share one wire format.
type Duration = faults.Duration

// NetSpec is the serializable form of a point-to-point interconnect
// model (popcorn.NetModel): round-trip latency plus bandwidth in
// bytes/second.
type NetSpec struct {
	RTT          Duration `json:"rtt"`
	BandwidthBps float64  `json:"bandwidth_bps"`
}

// model materialises the interconnect model.
func (n NetSpec) model() popcorn.NetModel {
	return popcorn.NetModel{LatencyRTT: time.Duration(n.RTT), BandwidthBps: n.BandwidthBps}
}

// TopologySpec selects a cluster topology by builder name and
// parameters, so a campaign cell can name its testbed instead of
// constructing it in Go. The zero value (and a nil pointer) selects the
// paper testbed.
type TopologySpec struct {
	// Kind selects the builder: "paper" (default), "scale-out",
	// "cross-rack" or "policy-comparison".
	Kind string `json:"kind"`
	// Name labels the built topology; required for scale-out and
	// cross-rack (the builders use it for report rows).
	Name string `json:"name,omitempty"`
	// X86 / ARM / FPGAs parameterize "scale-out".
	X86   int `json:"x86,omitempty"`
	ARM   int `json:"arm,omitempty"`
	FPGAs int `json:"fpgas,omitempty"`
	// ARMNear / ARMFar split the ARM fleet of "cross-rack".
	ARMNear int `json:"arm_near,omitempty"`
	ARMFar  int `json:"arm_far,omitempty"`
	// Cross overrides the cross-rack interconnect; nil selects
	// SlowCrossRackNet (100 Mbps, 2 ms RTT).
	Cross *NetSpec `json:"cross,omitempty"`
}

// Build materialises the selected topology and validates it.
// Parameters a builder does not consume are rejected, not ignored —
// the same reject-ignored-knobs rule the cell validator applies.
func (ts *TopologySpec) Build() (cluster.Topology, error) {
	if ts == nil {
		return cluster.PaperTopology(), nil
	}
	counts := [...]struct {
		field string
		n     int
	}{{"x86", ts.X86}, {"arm", ts.ARM}, {"arm_near", ts.ARMNear}, {"arm_far", ts.ARMFar}, {"fpgas", ts.FPGAs}}
	for _, c := range counts {
		if c.n < 0 {
			return cluster.Topology{}, fmt.Errorf("exper: topology %s %d is negative", c.field, c.n)
		}
		if c.n > cluster.MaxNodes {
			return cluster.Topology{}, fmt.Errorf("exper: topology %s %d exceeds %d", c.field, c.n, cluster.MaxNodes)
		}
	}
	if n := ts.X86 + ts.ARM + ts.ARMNear + ts.ARMFar; n > cluster.MaxNodes {
		return cluster.Topology{}, fmt.Errorf("exper: topology has %d nodes, more than %d", n, cluster.MaxNodes)
	}
	var topo cluster.Topology
	switch ts.Kind {
	case "", "paper", "policy-comparison":
		if ts.Name != "" || ts.X86 != 0 || ts.ARM != 0 || ts.FPGAs != 0 ||
			ts.ARMNear != 0 || ts.ARMFar != 0 || ts.Cross != nil {
			return cluster.Topology{}, fmt.Errorf("exper: %s topology is fixed and takes no parameters", ts.Kind)
		}
		if ts.Kind == "policy-comparison" {
			return PolicyComparisonTopology(), nil
		}
		return cluster.PaperTopology(), nil
	case "scale-out":
		if ts.Name == "" {
			return cluster.Topology{}, fmt.Errorf("exper: scale-out topology needs a name")
		}
		if ts.ARMNear != 0 || ts.ARMFar != 0 || ts.Cross != nil {
			return cluster.Topology{}, fmt.Errorf("exper: scale-out topology does not take arm_near/arm_far/cross (use arm)")
		}
		topo = cluster.ScaleOutTopology(ts.Name, ts.X86, ts.ARM, ts.FPGAs)
	case "cross-rack":
		if ts.Name == "" {
			return cluster.Topology{}, fmt.Errorf("exper: cross-rack topology needs a name")
		}
		if ts.ARM != 0 {
			return cluster.Topology{}, fmt.Errorf("exper: cross-rack topology does not take arm (use arm_near/arm_far)")
		}
		cross := SlowCrossRackNet()
		if ts.Cross != nil {
			cross = ts.Cross.model()
		}
		topo = cluster.CrossRackTopology(ts.Name, ts.X86, ts.ARMNear, ts.ARMFar, ts.FPGAs, cross)
	default:
		return cluster.Topology{}, fmt.Errorf("exper: unknown topology kind %q (want paper, scale-out, cross-rack or policy-comparison)", ts.Kind)
	}
	if err := topo.Validate(); err != nil {
		return cluster.Topology{}, err
	}
	return topo, nil
}

// MMPPStateSpec is the serializable form of one MMPPState regime.
type MMPPStateSpec struct {
	RatePerSec  float64  `json:"rate_per_sec"`
	MeanSojourn Duration `json:"mean_sojourn"`
}

// CellSpec declares one experiment cell of a campaign. Kind selects the
// experiment; the grid axes (Rates, Modes, Policies, Seeds) expand into
// one concrete cell per combination, so a rates × policies sweep is one
// spec entry instead of a hand-rolled loop. Scalar and axis forms of
// the same knob are mutually exclusive.
type CellSpec struct {
	// Name labels the cell's rows in reports; serving cells default to
	// the topology name.
	Name string `json:"name,omitempty"`
	// Kind is one of KindSet, KindThroughput, KindWaves, KindServing,
	// KindPolicyComparison.
	Kind string `json:"kind"`
	// Topology selects the testbed of serving-class cells; nil is the
	// paper testbed (PolicyComparisonTopology for policy-comparison
	// cells). Set/throughput/waves cells always run the paper testbed,
	// as their figures do.
	Topology *TopologySpec `json:"topology,omitempty"`

	// Mode / Modes select the execution regime(s): "xar-trek" (default),
	// "vanilla-x86", "vanilla-fpga", "vanilla-arm".
	Mode  string   `json:"mode,omitempty"`
	Modes []string `json:"modes,omitempty"`
	// Policy / Policies select the placement policy axis ("default",
	// "link-aware", "affinity", "deadline"). A cell-level policy
	// overrides Options.Policy.
	Policy   string   `json:"policy,omitempty"`
	Policies []string `json:"policies,omitempty"`
	// Rate / Rates are mean Poisson arrival rates (requests/second) for
	// serving-class cells.
	Rate  float64   `json:"rate,omitempty"`
	Rates []float64 `json:"rates,omitempty"`
	// Seed / Seeds drive every randomized draw of the cell; fixed seeds
	// make cells byte-identical.
	Seed  int64   `json:"seed,omitempty"`
	Seeds []int64 `json:"seeds,omitempty"`

	// Duration is the serving injection horizon or the throughput run
	// length.
	Duration Duration `json:"duration,omitempty"`
	// Trace lists explicit arrival offsets inline (serving cells).
	Trace []Duration `json:"trace,omitempty"`
	// TraceFile replays a recorded request log (one timestamp per line
	// or CSV; see LoadTrace), resolved against RunOpts.BaseDir.
	TraceFile string `json:"trace_file,omitempty"`
	// TraceRescale multiplies the trace's arrival rate (2 = twice as
	// fast); 0 and 1 replay it unchanged.
	TraceRescale float64 `json:"trace_rescale,omitempty"`
	// MMPP generates a bursty arrival trace from the given regimes
	// (MMPPTrace) over the cell's duration and seed.
	MMPP []MMPPStateSpec `json:"mmpp,omitempty"`
	// SplitImages builds the cell's artifacts in step E's manual
	// one-image-per-kernel mode (BuildArtifactsSplitImages) — the
	// regime the affinity policy targets.
	SplitImages bool `json:"split_images,omitempty"`
	// Options carries the ablation switches; nil is the full system.
	Options *Options `json:"options,omitempty"`
	// Faults is the cell's declarative fault plan (serving-class cells
	// only): node crashes/recoveries, FPGA failures, link degradation
	// and maintenance drains injected on the sim timeline, expanded
	// deterministically from the cell seed. nil — or an empty spec —
	// injects nothing and leaves the run byte-identical to a fault-free
	// cell.
	Faults *faults.Spec `json:"faults,omitempty"`
	// Admission bounds each entry node's resident queue with a
	// configurable overload policy (serving-class cells only). nil — or
	// a disabled spec — leaves the run byte-identical to the
	// pre-admission engine.
	Admission *elastic.AdmissionSpec `json:"admission,omitempty"`
	// Autoscaler runs the elastic control loop: an epoch sampler on the
	// sim timeline joins or drains entry nodes by observed load
	// (serving-class cells only). nil — or a disabled spec — leaves the
	// run byte-identical to the pre-autoscaler engine.
	Autoscaler *elastic.AutoscalerSpec `json:"autoscaler,omitempty"`
	// Knee declares a capacity-knee search (knee cells only): the rate
	// window, the SLO predicate and the search resolution.
	Knee *elastic.KneeSpec `json:"knee,omitempty"`
	// Workload declares a multi-tenant cohort workload (serving-class
	// cells only): named cohorts splitting the cell's aggregate rate,
	// each with an SLO class, arrival process and app mix
	// (tenancy.Spec). The cell then reports per-class percentiles and
	// SLO attainment. nil leaves the cell byte-identical to the
	// pre-tenancy engine. Mutually exclusive with traces.
	Workload *tenancy.Spec `json:"workload,omitempty"`

	// Apps names the application set of a set cell (repeats allowed);
	// SetSize draws a random set from the registry instead (seeded).
	Apps    []string `json:"apps,omitempty"`
	SetSize int      `json:"set_size,omitempty"`
	// TotalLoad tops the set cell's x86 load up with MG-B background
	// processes.
	TotalLoad int `json:"total_load,omitempty"`

	// App names the throughput cell's application; Load its background
	// process count; MaxImages caps the processed images (0 = no cap).
	App       string `json:"app,omitempty"`
	Load      int    `json:"load,omitempty"`
	MaxImages int    `json:"max_images,omitempty"`

	// Waves/PerWave/Interval parameterize a waves cell.
	Waves    int      `json:"waves,omitempty"`
	PerWave  int      `json:"per_wave,omitempty"`
	Interval Duration `json:"interval,omitempty"`
}

// CampaignSpec is a declarative, JSON-serializable experiment campaign:
// a named list of cells, each expanding its grid axes into concrete
// runs. RunCampaign executes it; ParseCampaign reads one from JSON.
type CampaignSpec struct {
	Name  string     `json:"name"`
	Cells []CellSpec `json:"cells"`
}

// ParseCampaign reads and validates a JSON campaign spec. Unknown
// fields and anything but whitespace after the spec are rejected, so
// typos in checked-in spec files fail parsing instead of silently
// selecting defaults.
func ParseCampaign(r io.Reader) (*CampaignSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec CampaignSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("exper: parse campaign: %w", err)
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("exper: parse campaign: data after the spec, which ends at offset %d", end)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// maxCells bounds the cells a campaign expands to. Grid axes multiply,
// so a 2 KiB spec listing a few hundred rates and seeds and a few dozen
// modes would otherwise expand to millions of cells.
const maxCells = 1 << 16

// Validate checks the structural invariants of the spec and every cell.
func (s CampaignSpec) Validate() error {
	if len(s.Cells) == 0 {
		return fmt.Errorf("exper: campaign %q has no cells", s.Name)
	}
	var cells float64 // a float, so no product of axis lengths overflows
	for i := range s.Cells {
		if err := s.Cells[i].validate(); err != nil {
			return fmt.Errorf("exper: campaign %q cell %d: %w", s.Name, i, err)
		}
		rates, modes, policies, seeds := s.Cells[i].axes()
		cells += float64(len(rates)) * float64(len(modes)) * float64(len(policies)) * float64(len(seeds))
		if cells > maxCells {
			return fmt.Errorf("exper: campaign %q expands to more than %d cells", s.Name, maxCells)
		}
	}
	return nil
}

// checkPeakRate bounds the arrival stream a cell offers at rate: the
// rate itself, and with a workload each cohort's peak rate, may not
// exceed simtime.MaxRate.
func (c *CellSpec) checkPeakRate(rate float64) error {
	if rate > simtime.MaxRate {
		return fmt.Errorf("rate %v exceeds the %v req/s stream bound", rate, simtime.MaxRate)
	}
	if c.Workload != nil {
		return c.Workload.CheckRate(rate)
	}
	return nil
}

// validate checks one cell's declaration.
func (c CellSpec) validate() error {
	if c.Rate != 0 && len(c.Rates) > 0 {
		return fmt.Errorf("rate and rates are mutually exclusive")
	}
	if c.Mode != "" && len(c.Modes) > 0 {
		return fmt.Errorf("mode and modes are mutually exclusive")
	}
	if c.Policy != "" && len(c.Policies) > 0 {
		return fmt.Errorf("policy and policies are mutually exclusive")
	}
	if c.Seed != 0 && len(c.Seeds) > 0 {
		return fmt.Errorf("seed and seeds are mutually exclusive")
	}
	for _, p := range append([]string{c.Policy}, c.Policies...) {
		if err := checkPolicy(p); err != nil {
			return err
		}
	}
	for _, m := range append([]string{c.Mode}, c.Modes...) {
		if _, err := ParseMode(m); err != nil {
			return err
		}
	}
	if c.Topology != nil {
		if _, err := c.Topology.Build(); err != nil {
			return err
		}
	}
	if c.Options != nil && c.Options.LatencyMode != "" {
		if _, err := parseLatencyMode(c.Options.LatencyMode); err != nil {
			return err
		}
		if !servingClass(c.Kind) {
			// The figure-class experiments report means and totals, not
			// latency percentiles; a latency-mode switch there would be
			// a silently ignored knob.
			return fmt.Errorf("%s cell does not take options.latency_mode", c.Kind)
		}
	}
	if c.Options != nil && c.Options.Shards != 0 {
		if !servingClass(c.Kind) {
			// Shards only fan the open-loop serving engine; elsewhere the
			// knob would be silently ignored.
			return fmt.Errorf("%s cell does not take options.shards", c.Kind)
		}
		if c.Options.Shards < 1 {
			return fmt.Errorf("options.shards %d must be at least 1", c.Options.Shards)
		}
		if c.Faults != nil && !c.Faults.Empty() {
			return fmt.Errorf("options.shards is incompatible with fault injection (the failure timeline is fleet-global)")
		}
		if c.Admission.Enabled() || c.Autoscaler.Enabled() {
			return fmt.Errorf("options.shards is incompatible with admission control and autoscaling (entry-fleet state is global)")
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if c.Workload != nil {
		if !servingClass(c.Kind) {
			// Cohort workloads only shape the open-loop serving stream.
			return fmt.Errorf("%s cell does not take a workload", c.Kind)
		}
		if err := c.Workload.Validate(); err != nil {
			return err
		}
		if len(c.Trace) > 0 || c.TraceFile != "" || len(c.MMPP) > 0 {
			// A workload generates the arrivals; a trace next to one
			// would silently win or lose.
			return fmt.Errorf("workload and an explicit trace (trace, trace_file or mmpp) are mutually exclusive")
		}
	}
	if err := validateElasticCell(&c); err != nil {
		return err
	}
	switch c.Kind {
	case KindServing, KindPolicyComparison:
		if c.Duration <= 0 {
			return fmt.Errorf("%s cell needs a positive duration", c.Kind)
		}
		sources := 0
		if len(c.Trace) > 0 {
			sources++
		}
		if c.TraceFile != "" {
			sources++
		}
		if len(c.MMPP) > 0 {
			sources++
		}
		if sources > 1 {
			return fmt.Errorf("trace, trace_file and mmpp are mutually exclusive")
		}
		if sources > 0 && (c.Rate != 0 || len(c.Rates) > 0) {
			// A trace fully determines the arrivals; a rate axis next to
			// one would replay identical simulations under misleading
			// rate labels.
			return fmt.Errorf("rate(s) and an explicit trace (trace, trace_file or mmpp) are mutually exclusive")
		}
		if c.TraceRescale != 0 && c.TraceFile == "" {
			return fmt.Errorf("trace_rescale applies only to trace_file")
		}
		if sources == 0 {
			if c.Rate <= 0 && len(c.Rates) == 0 {
				return fmt.Errorf("%s cell needs rate(s), trace, trace_file or mmpp", c.Kind)
			}
			for _, r := range c.Rates {
				if r <= 0 {
					return fmt.Errorf("non-positive rate %v in rates", r)
				}
			}
			for _, r := range append([]float64{c.Rate}, c.Rates...) {
				if err := c.checkPeakRate(r); err != nil {
					return err
				}
			}
		}
		for _, d := range c.Trace {
			if d < 0 {
				return fmt.Errorf("negative trace offset %v", time.Duration(d))
			}
		}
	case KindKnee:
		if err := c.Knee.Validate(); err != nil {
			return err
		}
		if err := c.checkPeakRate(c.Knee.RateHi); err != nil {
			return err
		}
		if c.Duration <= 0 {
			return fmt.Errorf("knee cell needs a positive duration")
		}
		if c.Rate != 0 || len(c.Rates) > 0 {
			// The search owns the rate axis.
			return fmt.Errorf("knee cell searches the rate axis and does not take rate(s)")
		}
		if len(c.Trace) > 0 || c.TraceFile != "" || c.TraceRescale != 0 || len(c.MMPP) > 0 {
			// A trace fixes the arrivals; there is no rate to search.
			return fmt.Errorf("knee cell probes Poisson rates and does not take a trace")
		}
		if c.Knee.SLO.HasClassBounds() {
			// Per-class SLO bounds judge observations only a cohort
			// workload produces, and a bound on a class the workload
			// never offers would fail every probe.
			if c.Workload == nil {
				return fmt.Errorf("knee slo class bounds (class_p99, min_attainment) require a workload")
			}
			classes := c.Workload.Classes()
			have := func(class string) bool {
				for _, k := range classes {
					if k == class {
						return true
					}
				}
				return false
			}
			for class := range c.Knee.SLO.ClassP99 {
				if !have(class) {
					return fmt.Errorf("knee slo class_p99 names class %q absent from the workload", class)
				}
			}
			for class := range c.Knee.SLO.MinAttainment {
				if !have(class) {
					return fmt.Errorf("knee slo min_attainment names class %q absent from the workload", class)
				}
			}
		}
	case KindSet:
		// Counts name their field when negative: a negative set_size
		// would pass beside apps, and a negative total_load would
		// silently become the set size.
		if c.SetSize < 0 {
			return fmt.Errorf("set_size %d is negative", c.SetSize)
		}
		if c.TotalLoad < 0 {
			return fmt.Errorf("total_load %d is negative", c.TotalLoad)
		}
		if len(c.Apps) == 0 && c.SetSize <= 0 {
			return fmt.Errorf("set cell needs apps or set_size")
		}
		if len(c.Apps) > 0 && c.SetSize > 0 {
			return fmt.Errorf("apps and set_size are mutually exclusive")
		}
		if c.SetSize > maxProcesses {
			return fmt.Errorf("set_size %d exceeds %d", c.SetSize, maxProcesses)
		}
		if c.TotalLoad > maxProcesses {
			return fmt.Errorf("total_load %d exceeds %d", c.TotalLoad, maxProcesses)
		}
	case KindThroughput:
		if c.App == "" {
			return fmt.Errorf("throughput cell needs an app")
		}
		if c.Duration <= 0 {
			return fmt.Errorf("throughput cell needs a positive duration")
		}
		// A negative load would run and be reported as such, and a
		// negative max_images would mean no cap.
		if c.Load < 0 {
			return fmt.Errorf("load %d is negative", c.Load)
		}
		if c.MaxImages < 0 {
			return fmt.Errorf("max_images %d is negative", c.MaxImages)
		}
		if c.Load > maxProcesses {
			return fmt.Errorf("load %d exceeds %d", c.Load, maxProcesses)
		}
	case KindWaves:
		if c.Waves <= 0 || c.PerWave <= 0 {
			return fmt.Errorf("waves cell needs positive waves and per_wave")
		}
		if c.Waves > maxProcesses/c.PerWave { // waves × per_wave > maxProcesses, without overflow
			return fmt.Errorf("waves %d × per_wave %d exceeds %d processes", c.Waves, c.PerWave, maxProcesses)
		}
		if c.Interval <= 0 {
			return fmt.Errorf("waves cell needs a positive interval")
		}
	case "":
		return fmt.Errorf("cell has no kind")
	default:
		return fmt.Errorf("unknown cell kind %q (want %s, %s, %s, %s, %s or %s)",
			c.Kind, KindSet, KindThroughput, KindWaves, KindServing, KindPolicyComparison, KindKnee)
	}
	// Reject fields that do not apply to the kind: a silently ignored
	// knob (a rates axis on a set cell, say) would expand into
	// duplicate runs masquerading as a sweep.
	if !servingClass(c.Kind) {
		if c.Rate != 0 || len(c.Rates) > 0 {
			return fmt.Errorf("%s cell does not take rate(s)", c.Kind)
		}
		if len(c.Trace) > 0 || c.TraceFile != "" || c.TraceRescale != 0 || len(c.MMPP) > 0 {
			return fmt.Errorf("%s cell does not take a trace", c.Kind)
		}
		if c.Topology != nil {
			return fmt.Errorf("%s cell runs the paper testbed and does not take a topology", c.Kind)
		}
		if c.SplitImages {
			// The figure-class experiments are defined on the combined
			// artifact set; split images would silently diverge from
			// the pinned figures.
			return fmt.Errorf("%s cell does not take split_images", c.Kind)
		}
		if c.Faults != nil {
			// The figure-class experiments reproduce the paper's
			// fault-free testbed; fault injection is a serving-campaign
			// regime.
			return fmt.Errorf("%s cell does not take faults", c.Kind)
		}
	}
	if c.Kind != KindSet && (len(c.Apps) > 0 || c.SetSize != 0 || c.TotalLoad != 0) {
		return fmt.Errorf("%s cell does not take apps/set_size/total_load", c.Kind)
	}
	if c.Kind != KindThroughput && (c.App != "" || c.Load != 0 || c.MaxImages != 0) {
		return fmt.Errorf("%s cell does not take app/load/max_images", c.Kind)
	}
	if c.Kind != KindWaves && (c.Waves != 0 || c.PerWave != 0 || c.Interval != 0) {
		return fmt.Errorf("%s cell does not take waves/per_wave/interval", c.Kind)
	}
	if (c.Kind == KindSet || c.Kind == KindWaves) && c.Duration != 0 {
		return fmt.Errorf("%s cell does not take a duration", c.Kind)
	}
	// Seeds drive randomized draws; a cell with nothing random (a
	// throughput run, a set with an explicit app list) would expand a
	// seed axis into byte-identical duplicates.
	if c.Seed != 0 || len(c.Seeds) > 0 {
		if c.Kind == KindThroughput {
			return fmt.Errorf("throughput cell has no randomness and does not take seed(s)")
		}
		if c.Kind == KindSet && len(c.Apps) > 0 {
			return fmt.Errorf("set cell with an explicit app list has no randomness and does not take seed(s)")
		}
	}
	return nil
}

// axes returns the grid axes Expand walks for c: each list as given,
// or the scalar field alone when the list is empty. A
// policy-comparison cell with neither a policy nor a policy axis
// compares every built-in policy.
func (c *CellSpec) axes() (rates []float64, modes, policies []string, seeds []int64) {
	rates, modes, policies, seeds = c.Rates, c.Modes, c.Policies, c.Seeds
	if len(rates) == 0 {
		rates = []float64{c.Rate}
	}
	if len(modes) == 0 {
		modes = []string{c.Mode}
	}
	if len(policies) == 0 {
		if c.Kind == KindPolicyComparison && c.Policy == "" {
			policies = Policies()
		} else {
			policies = []string{c.Policy}
		}
	}
	if len(seeds) == 0 {
		seeds = []int64{c.Seed}
	}
	return rates, modes, policies, seeds
}

// Expand flattens every cell's grid axes into scalar cells: for each
// spec entry, Rates × Modes × Policies × Seeds, nested outer to inner
// in that order, preserving spec order across entries. The expansion is
// deterministic, so cell indices — and therefore report rows and
// streamed progress — are a pure function of the spec. A
// policy-comparison cell with no policy axis expands to every built-in
// policy (Policies()).
func (s CampaignSpec) Expand() ([]CellSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []CellSpec
	for _, c := range s.Cells {
		rates, modes, policies, seeds := c.axes()
		for _, rate := range rates {
			for _, mode := range modes {
				for _, policy := range policies {
					for _, seed := range seeds {
						cell := c
						cell.Rate, cell.Rates = rate, nil
						cell.Mode, cell.Modes = mode, nil
						cell.Policy, cell.Policies = policy, nil
						cell.Seed, cell.Seeds = seed, nil
						out = append(out, cell)
					}
				}
			}
		}
	}
	return out, nil
}
