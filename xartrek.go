// Package xartrek is a faithful Go reproduction of "Xar-Trek: Run-time
// Execution Migration among FPGAs and Heterogeneous-ISA CPUs"
// (Middleware '21). It provides:
//
//   - the Xar-Trek compiler pipeline (profiling manifest,
//     instrumentation, Popcorn multi-ISA binary generation, HLS
//     synthesis, XCLBIN partitioning/generation, threshold
//     estimation),
//   - the run-time system (client/server scheduler implementing the
//     paper's Algorithm 2 policy and Algorithm 1 dynamic threshold
//     update, over direct calls or TCP), and
//   - the evaluation platform (discrete-event models of the paper's
//     x86/ARM/Alveo-U50 testbed, generalised to configurable
//     N-node/M-FPGA topologies) with runners that regenerate every
//     table and figure of the evaluation section and drive open-loop
//     serving campaigns against scaled-out clusters.
//
// The physical testbed is simulated — see DESIGN.md for the
// substitution table — but the compiler passes, scheduling algorithms,
// wire protocols and benchmark applications are real implementations.
//
// # Quickstart
//
// Experiments are described declaratively: a CampaignSpec is plain,
// JSON-serializable data (cells with grid axes like rates × policies ×
// seeds) and RunCampaign executes it with deterministic, streamed
// per-cell results:
//
//	apps, _ := xartrek.Benchmarks()
//	arts, _ := xartrek.Build(apps)
//	rep, _ := xartrek.RunCampaign(arts, xartrek.CampaignSpec{
//		Name: "quickstart",
//		Cells: []xartrek.CellSpec{{
//			Kind:     xartrek.KindServing,
//			Topology: &xartrek.TopologySpec{Kind: "scale-out", Name: "rack8", X86: 4, ARM: 4, FPGAs: 2},
//			Rates:    []float64{2, 8},
//			Modes:    []string{"xar-trek", "vanilla-x86"},
//			Duration: xartrek.Duration(30 * time.Second),
//			Seed:     2021,
//		}},
//	}, xartrek.RunOpts{})
//	fmt.Println(rep.Cells[0].Metrics["p99_ms"])
//
// The same spec runs from a JSON file via ParseCampaign or
// `xarbench -campaign spec.json`; see examples/campaigns. The classic
// Run* entry points (RunSet, RunThroughput, RunWaves, RunServing,
// RunServingSweep, RunPolicyComparison) are the engines themselves:
// RunCampaign resolves each spec cell into one call of its kind's
// engine, so a cell and the matching direct call agree byte for byte.
package xartrek

import (
	"io"
	"math/rand"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/profile"
	"xartrek/internal/core/sched"
	"xartrek/internal/core/threshold"
	"xartrek/internal/exper"
	"xartrek/internal/popcorn"
	"xartrek/internal/power"
	"xartrek/internal/tenancy"
	"xartrek/internal/workloads"
)

// Core re-exported types. Aliases keep one canonical definition in the
// internal packages while giving library users a single import.
type (
	// App is one benchmark application with its program, hardware-
	// kernel spec and calibrated execution profile.
	App = workloads.App
	// Artifacts is the compiler pipeline's output over an
	// application set: binaries, XCLBIN images, threshold table.
	Artifacts = exper.Artifacts
	// Platform is one experiment's simulated testbed.
	Platform = exper.Platform
	// Mode selects Xar-Trek or a no-migration baseline.
	Mode = exper.Mode
	// Target identifies an execution target (x86/ARM/FPGA).
	Target = threshold.Target
	// ThresholdTable is the step G output consumed by the scheduler.
	ThresholdTable = threshold.Table
	// ThresholdRecord is one application's threshold state.
	ThresholdRecord = threshold.Record
	// Scheduler is the run-time scheduler server (Algorithm 2).
	Scheduler = sched.Server
	// SchedulerClient is the per-application scheduler client.
	SchedulerClient = sched.Client
	// Manifest is the step A profiling manifest.
	Manifest = profile.Manifest
	// RunResult records one application run.
	RunResult = exper.RunResult
	// SetResult is a fixed-workload measurement.
	SetResult = exper.SetResult
	// ThroughputResult is a Figure 6/8 measurement.
	ThroughputResult = exper.ThroughputResult
	// WaveResult is Figure 7's periodic-wave measurement.
	WaveResult = exper.WaveResult
	// Options disables individual design decisions for ablations.
	Options = exper.Options
	// CampaignSpec is a declarative, JSON-serializable experiment
	// campaign: named cells whose grid axes (rates × modes × policies ×
	// seeds) expand into concrete runs.
	CampaignSpec = exper.CampaignSpec
	// CellSpec declares one campaign cell (kind, topology, load, axes).
	CellSpec = exper.CellSpec
	// TopologySpec selects a cluster topology by builder name and
	// parameters inside a campaign cell.
	TopologySpec = exper.TopologySpec
	// NetSpec is the serializable interconnect model of a TopologySpec.
	NetSpec = exper.NetSpec
	// MMPPStateSpec is one serializable regime of a bursty arrival
	// generator inside a campaign cell.
	MMPPStateSpec = exper.MMPPStateSpec
	// Duration is a time.Duration that serializes as "90s"-style
	// strings in campaign specs.
	Duration = exper.Duration
	// Report is one campaign's full output in expansion order.
	Report = exper.Report
	// CellResult is the unified per-cell report: identity fields, a
	// flat metrics map, and the kind's typed payload.
	CellResult = exper.CellResult
	// RunOpts carries RunCampaign's execution options (trace base
	// directory, streamed per-cell callback).
	RunOpts = exper.RunOpts
	// SchedTCPServer is the TCP transport wrapping a Scheduler (what
	// ListenAndServe returns; the xarsched daemon's listener).
	SchedTCPServer = sched.TCPServer
	// SchedTCPClient is the client transport DialScheduler returns.
	SchedTCPClient = sched.TCPClient
	// PowerModel is the platform power model of the energy-aware
	// extension (the paper's Section 5 future work).
	PowerModel = power.Model
	// EnergySegment is one accounted interval for energy integration.
	EnergySegment = power.Segment
	// Topology is a configurable heterogeneous cluster: N CPU nodes,
	// M FPGA devices, per-pair links.
	Topology = cluster.Topology
	// NodeSpec describes one CPU server of a topology.
	NodeSpec = cluster.NodeSpec
	// FPGASpec describes one accelerator card of a topology.
	FPGASpec = cluster.FPGASpec
	// LinkSpec overrides one node pair's interconnect model.
	LinkSpec = cluster.LinkSpec
	// ServingConfig describes one open-loop serving run.
	ServingConfig = exper.ServingConfig
	// ServingResult is one serving run's throughput/latency report.
	ServingResult = exper.ServingResult
	// PlacementPolicy chooses concrete placements within Algorithm 2's
	// class decision (which ARM node, which FPGA card); implement it to
	// plug a custom policy into a Scheduler fleet.
	PlacementPolicy = sched.PlacementPolicy
	// PlacementContext is the per-request information a placement
	// policy scores with.
	PlacementContext = sched.PlacementContext
	// Fleet is the generalized-topology view a placement policy scores
	// over: ARM candidates, device fleet, transfer-cost context.
	Fleet = sched.Fleet
	// SchedulerStats aggregates a scheduler's decision and
	// reconfiguration counters.
	SchedulerStats = sched.Stats
	// MMPPState is one regime of the bursty (MMPP) arrival generator.
	MMPPState = exper.MMPPState
	// WorkloadSpec declares a multi-tenant cohort workload for
	// ServingConfig.Workload / CellSpec.Workload: named cohorts with
	// rate fractions, SLO classes, arrival processes and app mixes.
	WorkloadSpec = tenancy.Spec
	// WorkloadCohort is one named client population of a WorkloadSpec.
	WorkloadCohort = tenancy.Cohort
	// ArrivalSpec selects a cohort's arrival process (poisson, gamma,
	// weibull) and burstiness (coefficient of variation).
	ArrivalSpec = tenancy.ArrivalSpec
	// ArrivalWindow is one segment of a cohort's cyclic rate schedule.
	ArrivalWindow = tenancy.Window
	// AppShare weights one application inside a cohort's app mix.
	AppShare = tenancy.AppShare
	// TenancyResult is a workload-driven serving run's per-class and
	// per-cohort report (ServingResult.Tenancy).
	TenancyResult = exper.TenancyResult
	// ClassResult is one SLO class's latency/attainment report.
	ClassResult = exper.ClassResult
	// CohortResult is one cohort's offered/completed counters.
	CohortResult = exper.CohortResult
)

// SLO class names for WorkloadCohort.Class.
const (
	// ClassCritical marks deadline-bound interactive traffic.
	ClassCritical = tenancy.ClassCritical
	// ClassBatch marks throughput-oriented background traffic.
	ClassBatch = tenancy.ClassBatch
)

// Arrival process names for ArrivalSpec.Process.
const (
	ProcessPoisson = tenancy.ProcessPoisson
	ProcessGamma   = tenancy.ProcessGamma
	ProcessWeibull = tenancy.ProcessWeibull
)

// Execution modes.
const (
	ModeXarTrek     = exper.ModeXarTrek
	ModeVanillaX86  = exper.ModeVanillaX86
	ModeVanillaFPGA = exper.ModeVanillaFPGA
	ModeVanillaARM  = exper.ModeVanillaARM
)

// Execution targets (the migration flag values of Figure 2).
const (
	TargetX86  = threshold.TargetX86
	TargetARM  = threshold.TargetARM
	TargetFPGA = threshold.TargetFPGA
)

// Placement-policy names for ServingConfig.Policy and a campaign
// cell's policy: the paper's least-loaded/lowest-indexed rule,
// transfer-aware ARM placement, and kernel→card affinity with image
// pre-partitioning.
const (
	PolicyDefault   = exper.PolicyDefault
	PolicyLinkAware = exper.PolicyLinkAware
	PolicyAffinity  = exper.PolicyAffinity
	// PolicyDeadline is the SLO-class-aware policy: critical requests
	// place link-aware, batch requests pack the most-loaded ARM node
	// and never trigger FPGA reconfigurations.
	PolicyDeadline = exper.PolicyDeadline
)

// Campaign cell kinds for CellSpec.Kind.
const (
	KindSet              = exper.KindSet
	KindThroughput       = exper.KindThroughput
	KindWaves            = exper.KindWaves
	KindServing          = exper.KindServing
	KindPolicyComparison = exper.KindPolicyComparison
	KindKnee             = exper.KindKnee
)

// RunCampaign executes a declarative campaign spec: grid axes expand
// deterministically into cells, cells fan across CPU cores, results
// land in expansion order (byte-identical for a fixed spec regardless
// of GOMAXPROCS), and RunOpts.OnCell streams completed cells in that
// order. Each cell is one call of the Run* engine of its kind.
func RunCampaign(arts *Artifacts, spec CampaignSpec, opts RunOpts) (*Report, error) {
	return exper.RunCampaign(arts, spec, opts)
}

// ParseCampaign reads and validates a JSON campaign spec (unknown
// fields are rejected).
func ParseCampaign(r io.Reader) (*CampaignSpec, error) { return exper.ParseCampaign(r) }

// LoadTrace parses a recorded request log (one timestamp per line, or
// CSV with the timestamp first; numeric seconds offsets or RFC 3339
// times) into arrival offsets for ServingConfig.Trace, rescaling the
// arrival rate by rescale (0 and 1 replay unchanged).
func LoadTrace(r io.Reader, rescale float64) ([]time.Duration, error) {
	return exper.LoadTrace(r, rescale)
}

// Benchmarks returns the paper's five Table 1 applications (CG-A,
// FaceDet320, FaceDet640, Digit500, Digit2000), freshly constructed
// and profiled.
func Benchmarks() ([]*App, error) { return workloads.Registry() }

// NewBFS builds the Section 4.4 BFS study application for an n-node
// graph.
func NewBFS(n int) (*App, error) { return workloads.NewBFS(n) }

// NewMGB builds the NPB MG class-B background load generator.
func NewMGB() (*App, error) { return workloads.NewMGB() }

// Build runs the full Xar-Trek compiler pipeline (steps A-G) over the
// application set: manifest assembly, instrumentation, multi-ISA
// binary generation, HLS synthesis, XCLBIN partitioning and threshold
// estimation.
func Build(apps []*App) (*Artifacts, error) { return exper.BuildArtifacts(apps) }

// BuildSplitImages is Build with step E's manual partitioning mode:
// every hardware kernel gets its own XCLBIN image, so a device fleet
// smaller than the kernel set reconfigures under contention — the
// regime the affinity placement policy targets.
func BuildSplitImages(apps []*App) (*Artifacts, error) {
	return exper.BuildArtifactsSplitImages(apps)
}

// NewPlatform instantiates a fresh simulated paper testbed over shared
// artifacts: x86 and ARM servers, the Alveo U50, and a scheduler
// server wired to the platform's load monitor and device.
func NewPlatform(arts *Artifacts) *Platform { return exper.NewPlatform(arts) }

// NewPlatformTopology materialises an arbitrary cluster topology as an
// experiment platform: one run queue per CPU node, one device per FPGA
// card, per-pair links, and a scheduler fleet whose generalized
// Algorithm 2 places work on the least-loaded node of an ISA class.
func NewPlatformTopology(arts *Artifacts, topo Topology) (*Platform, error) {
	return exper.NewPlatformTopo(arts, topo, exper.Options{})
}

// PaperTopology returns the paper's Section 4 testbed as a topology.
func PaperTopology() Topology { return cluster.PaperTopology() }

// ScaleOutTopology builds a rack of nX86 x86 hosts, nARM ARM servers
// and nFPGA accelerator cards joined by 1 Gbps Ethernet.
func ScaleOutTopology(name string, nX86, nARM, nFPGA int) Topology {
	return cluster.ScaleOutTopology(name, nX86, nARM, nFPGA)
}

// CrossRackTopology builds a two-rack cluster whose rack B ARM servers
// sit behind the given cross-rack interconnect model while rack A
// (entry hosts + near ARM) keeps 1 Gbps Ethernet — the testbed for
// link-aware placement.
func CrossRackTopology(name string, nX86, nARMNear, nARMFar, nFPGA int, cross popcorn.NetModel) Topology {
	return cluster.CrossRackTopology(name, nX86, nARMNear, nARMFar, nFPGA, cross)
}

// NetModel is a point-to-point interconnect model (RTT + bandwidth),
// used for Topology.DefaultNet and per-pair LinkSpec overrides.
type NetModel = popcorn.NetModel

// EthernetGbps1 is the paper testbed's shared 1 Gbps Ethernet.
func EthernetGbps1() NetModel { return popcorn.EthernetGbps1() }

// SlowCrossRackNet is the canonical degraded cross-rack hop of the
// policy-comparison campaign (100 Mbps, 2 ms RTT).
func SlowCrossRackNet() NetModel { return exper.SlowCrossRackNet() }

// PolicyComparisonTopology is the canonical cross-rack cell the
// placement policies are compared on in EXPERIMENTS.md: 4 x86 entry
// hosts + 2 near ARM servers, 2 far ARM servers behind
// SlowCrossRackNet, 2 FPGA cards.
func PolicyComparisonTopology() Topology { return exper.PolicyComparisonTopology() }

// MMPPTrace draws a bursty arrival trace from a Markov-modulated
// Poisson process cycling through the given states; feed the result
// to ServingConfig.Trace.
func MMPPTrace(seed int64, horizon time.Duration, states []MMPPState) ([]time.Duration, error) {
	return exper.MMPPTrace(seed, horizon, states)
}

// BurstyTrace is the two-state MMPP convenience: bursts at burstRate
// (mean length burstLen) separated by idle stretches at idleRate
// (mean length idleLen).
func BurstyTrace(seed int64, horizon time.Duration, burstRate float64, burstLen time.Duration, idleRate float64, idleLen time.Duration) ([]time.Duration, error) {
	return exper.BurstyTrace(seed, horizon, burstRate, burstLen, idleRate, idleLen)
}

// RunPolicyComparison runs one serving configuration once per named
// placement policy (see Policies) with everything else held fixed,
// attributing tail-latency and churn differences to placement alone.
// It is RunServingSweep with one config per policy; spec files express
// the same sweep as one KindPolicyComparison cell.
func RunPolicyComparison(arts *Artifacts, cfg ServingConfig, policies []string) ([]ServingResult, error) {
	return exper.RunPolicyComparison(arts, cfg, policies)
}

// Policies lists the built-in placement policies in report order.
func Policies() []string { return exper.Policies() }

// RunServing executes one open-loop serving run: Poisson (or
// trace-driven) request arrivals against a chosen topology, reporting
// throughput and p50/p95/p99 completion latency. Campaign serving,
// policy-comparison and knee cells run through it.
func RunServing(arts *Artifacts, cfg ServingConfig) (ServingResult, error) {
	return exper.RunServing(arts, cfg)
}

// RunServingSweep runs RunServing over every config across CPU cores
// with deterministic, GOMAXPROCS-independent output: results in config
// order, and the lowest-index error as RunServing returned it.
func RunServingSweep(arts *Artifacts, cfgs []ServingConfig) ([]ServingResult, error) {
	return exper.RunServingSweep(arts, cfgs)
}

// ParseManifest reads a step A profiling manifest.
func ParseManifest(r io.Reader) (*Manifest, error) { return profile.Parse(r) }

// ParseThresholdTable reads a step G threshold table.
func ParseThresholdTable(r io.Reader) (*ThresholdTable, error) { return threshold.Parse(r) }

// EstimateThresholds runs the step G estimation campaign in isolation.
func EstimateThresholds(apps []*App) (*ThresholdTable, error) {
	return threshold.NewEstimator().Estimate(apps)
}

// ListenAndServe exposes a scheduler server over TCP (the xarsched
// daemon's core).
func ListenAndServe(addr string, srv *Scheduler) (*SchedTCPServer, error) {
	return sched.ListenAndServe(addr, srv)
}

// DialScheduler connects a client transport to a TCP scheduler.
func DialScheduler(addr string) (*SchedTCPClient, error) { return sched.Dial(addr) }

// RunSet launches an application set at time zero under the mode with
// background load topped up to totalLoad processes, returning the
// set's average execution time (Figures 3-5's measurement). Campaign
// set cells run through the same engine.
func RunSet(arts *Artifacts, set []*App, mode Mode, totalLoad int) (SetResult, error) {
	return exper.RunSet(arts, set, mode, totalLoad)
}

// RandomSet draws n applications uniformly from the pool.
func RandomSet(rng *rand.Rand, pool []*App, n int) []*App {
	return exper.RandomSet(rng, pool, n)
}

// RunThroughput measures multi-image face-detection throughput under a
// fixed background load (Figure 6): the images processed within
// duration, at most maxImages of them (≤ 0 means no cap). Campaign
// throughput cells run through the same engine.
func RunThroughput(arts *Artifacts, app *App, mode Mode, load int, duration time.Duration, maxImages int) (ThroughputResult, error) {
	return exper.RunThroughput(arts, app, mode, load, duration, maxImages)
}

// RunWaves runs the periodic wave workload (Figure 7). Campaign waves
// cells run through the same engine.
func RunWaves(arts *Artifacts, mode Mode, waves, perWave int, interval time.Duration, seed int64) (WaveResult, error) {
	return exper.RunWaves(arts, mode, waves, perWave, interval, seed)
}

// DefaultPowerModel returns the evaluation platform's power model
// (Xeon Bronze 3104, ThunderX, Alveo U50) used by the energy-aware
// scheduling extension. Enable the extension on a platform with
//
//	p.Server.UseEnergyPolicy(xartrek.DefaultPowerModel(), p.Cluster.X86.Cores)
func DefaultPowerModel() PowerModel { return power.Default() }

// EDP computes the energy-delay product in joule-seconds.
func EDP(energyJ float64, elapsed time.Duration) float64 { return power.EDP(energyJ, elapsed) }
