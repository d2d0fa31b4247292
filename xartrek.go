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
// This package exports what the programs under examples/ call; the
// xarbench, xarc and xarsched commands use the internal packages
// directly.
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
// `xarbench -campaign spec.json`; see examples/campaigns. Serving runs,
// placement-policy comparisons, bursty MMPP arrivals and capacity-knee
// searches are all campaign cells. RunSet and RunThroughput are the
// set and throughput cells' engines, so such a cell and the matching
// direct call agree byte for byte.
package xartrek

import (
	"io"
	"time"

	"xartrek/internal/core/threshold"
	"xartrek/internal/exper"
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
	// ThresholdTable is the step G output consumed by the scheduler.
	ThresholdTable = threshold.Table
	// RunResult records one application run.
	RunResult = exper.RunResult
	// SetResult is a fixed-workload measurement.
	SetResult = exper.SetResult
	// ThroughputResult is a Figure 6/8 measurement.
	ThroughputResult = exper.ThroughputResult
	// CampaignSpec is a declarative, JSON-serializable experiment
	// campaign: named cells whose grid axes (rates × modes × policies ×
	// seeds) expand into concrete runs.
	CampaignSpec = exper.CampaignSpec
	// CellSpec declares one campaign cell (kind, topology, load, axes).
	CellSpec = exper.CellSpec
	// TopologySpec selects a cluster topology by builder name and
	// parameters inside a campaign cell.
	TopologySpec = exper.TopologySpec
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
	// PowerModel is the platform power model of the energy-aware
	// extension (the paper's Section 5 future work).
	PowerModel = power.Model
	// EnergySegment is one accounted interval for energy integration.
	EnergySegment = power.Segment
	// WorkloadSpec declares a multi-tenant cohort workload for
	// CellSpec.Workload: named cohorts with rate fractions, SLO
	// classes, arrival processes and app mixes.
	WorkloadSpec = tenancy.Spec
	// WorkloadCohort is one named client population of a WorkloadSpec.
	WorkloadCohort = tenancy.Cohort
	// ArrivalSpec selects a cohort's arrival process (poisson, gamma,
	// weibull) and burstiness (coefficient of variation).
	ArrivalSpec = tenancy.ArrivalSpec
	// AppShare weights one application inside a cohort's app mix.
	AppShare = tenancy.AppShare
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

// Placement-policy names for a campaign cell's policy: the paper's
// least-loaded/lowest-indexed rule, transfer-aware ARM placement, and
// kernel→card affinity with image pre-partitioning.
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
// order. Each cell is one call of its kind's engine.
func RunCampaign(arts *Artifacts, spec CampaignSpec, opts RunOpts) (*Report, error) {
	return exper.RunCampaign(arts, spec, opts)
}

// ParseCampaign reads and validates a JSON campaign spec (unknown
// fields are rejected).
func ParseCampaign(r io.Reader) (*CampaignSpec, error) { return exper.ParseCampaign(r) }

// LoadTrace parses a recorded request log (one timestamp per line, or
// CSV with the timestamp first; numeric seconds offsets or RFC 3339
// times) into arrival offsets for CellSpec.Trace, rescaling the
// arrival rate by rescale (0 and 1 replay unchanged).
func LoadTrace(r io.Reader, rescale float64) ([]time.Duration, error) {
	return exper.LoadTrace(r, rescale)
}

// Benchmarks returns the paper's five Table 1 applications (CG-A,
// FaceDet320, FaceDet640, Digit500, Digit2000), freshly constructed
// and profiled.
func Benchmarks() ([]*App, error) { return workloads.Registry() }

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

// ParseThresholdTable reads a step G threshold table.
func ParseThresholdTable(r io.Reader) (*ThresholdTable, error) { return threshold.Parse(r) }

// EstimateThresholds runs the step G estimation campaign in isolation.
func EstimateThresholds(apps []*App) (*ThresholdTable, error) {
	return threshold.NewEstimator().Estimate(apps)
}

// RunSet launches an application set at time zero under the mode with
// background load topped up to totalLoad processes, returning the
// set's average execution time (Figures 3-5's measurement). Campaign
// set cells run through the same engine.
func RunSet(arts *Artifacts, set []*App, mode Mode, totalLoad int) (SetResult, error) {
	return exper.RunSet(arts, set, mode, totalLoad)
}

// RunThroughput measures multi-image face-detection throughput under a
// fixed background load (Figure 6): the images processed within
// duration, at most maxImages of them (≤ 0 means no cap). Campaign
// throughput cells run through the same engine.
func RunThroughput(arts *Artifacts, app *App, mode Mode, load int, duration time.Duration, maxImages int) (ThroughputResult, error) {
	return exper.RunThroughput(arts, app, mode, load, duration, maxImages)
}

// DefaultPowerModel returns the evaluation platform's power model
// (Xeon Bronze 3104, ThunderX, Alveo U50) used by the energy-aware
// scheduling extension. Enable the extension on a platform with
//
//	p.Server.UseEnergyPolicy(xartrek.DefaultPowerModel(), p.Cluster.X86.Cores)
func DefaultPowerModel() PowerModel { return power.Default() }

// EDP computes the energy-delay product in joule-seconds.
func EDP(energyJ float64, elapsed time.Duration) float64 { return power.EDP(energyJ, elapsed) }
