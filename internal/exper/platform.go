// Package exper is the experiment engine: it materialises a cluster
// topology (the paper's Section 4 testbed by default, arbitrary
// N-node/M-FPGA topologies via NewPlatformTopo) on the discrete-event
// simulator, runs application processes under Xar-Trek or the
// no-migration baselines, reproduces every table and figure of the
// paper's evaluation, and drives open-loop serving campaigns against
// scaled-out clusters (RunCampaign, whose serving cells each call
// RunServing).
package exper

import (
	"fmt"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/compilepipe"
	"xartrek/internal/core/profile"
	"xartrek/internal/core/sched"
	"xartrek/internal/core/threshold"
	"xartrek/internal/hls"
	"xartrek/internal/simtime"
	"xartrek/internal/workloads"
	"xartrek/internal/xrt"
)

// Mode selects the execution regime of an experiment.
type Mode int

// Execution modes: Xar-Trek's dynamic migration and the paper's three
// no-migration baselines.
const (
	ModeXarTrek Mode = iota + 1
	ModeVanillaX86
	ModeVanillaFPGA
	ModeVanillaARM
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeXarTrek:
		return "xar-trek"
	case ModeVanillaX86:
		return "vanilla-x86"
	case ModeVanillaFPGA:
		return "vanilla-fpga"
	case ModeVanillaARM:
		return "vanilla-arm"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses a mode's String form ("xar-trek", "vanilla-x86",
// "vanilla-fpga", "vanilla-arm"); the empty string selects ModeXarTrek.
// It is the inverse of Mode.String for every valid mode, which campaign
// specs rely on to round-trip.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "xar-trek":
		return ModeXarTrek, nil
	case "vanilla-x86":
		return ModeVanillaX86, nil
	case "vanilla-fpga":
		return ModeVanillaFPGA, nil
	case "vanilla-arm":
		return ModeVanillaARM, nil
	}
	return 0, fmt.Errorf("exper: unknown mode %q (want xar-trek, vanilla-x86, vanilla-fpga or vanilla-arm)", s)
}

// Artifacts bundles everything the compiler pipeline produces once per
// application set and every experiment platform then shares: compiled
// binaries, XCLBIN images, and the estimated threshold table. Building
// it is the expensive part (step G sweeps loads); a single Artifacts
// value seeds any number of experiment platforms.
type Artifacts struct {
	Apps    []*workloads.App
	Compile *compilepipe.Result
	Table   *threshold.Table
}

// BuildArtifacts runs the full compiler pipeline (steps A-G) over the
// application set, with step E's automatic first-fit partitioning
// (the Alveo U50's dynamic region fits all five paper kernels in one
// image, so the paper testbed never reconfigures after first load).
func BuildArtifacts(apps []*workloads.App) (*Artifacts, error) {
	return buildArtifacts(apps, false)
}

// BuildArtifactsSplitImages runs the same pipeline in step E's manual
// mode with every hardware kernel assigned its own XCLBIN image — the
// configuration a designer picks when kernels must hot-swap
// independently. On a device fleet smaller than the image set the
// cards now reconfigure under contention, which is the regime the
// affinity placement policy exists for.
func BuildArtifactsSplitImages(apps []*workloads.App) (*Artifacts, error) {
	return buildArtifacts(apps, true)
}

func buildArtifacts(apps []*workloads.App, splitImages bool) (*Artifacts, error) {
	manifest := &profile.Manifest{Platform: "alveo-u50"}
	inputs := make([]compilepipe.AppInput, 0, len(apps))
	for _, app := range apps {
		if !app.HWCapable {
			continue
		}
		idx := profile.AutoAssign
		if splitImages {
			idx = len(manifest.Apps)
		}
		fnName := app.Spec.Fn.Name()
		manifest.Apps = append(manifest.Apps, profile.App{
			Name: app.Name,
			Functions: []profile.Function{{
				Name:        fnName,
				Kernel:      app.KernelName,
				XCLBINIndex: idx,
			}},
		})
		spec := app.Spec
		spec.TripCount = app.Trips
		inputs = append(inputs, compilepipe.AppInput{
			Name:    app.Name,
			Program: app.Program,
			Specs:   map[string]hls.KernelSpec{fnName: spec},
		})
	}
	var res *compilepipe.Result
	if len(manifest.Apps) > 0 {
		var err error
		res, err = compilepipe.Compile(compilepipe.Input{Manifest: manifest, Apps: inputs})
		if err != nil {
			return nil, fmt.Errorf("exper: compile: %w", err)
		}
	}
	table, err := threshold.NewEstimator().Estimate(apps)
	if err != nil {
		return nil, fmt.Errorf("exper: estimate thresholds: %w", err)
	}
	return &Artifacts{Apps: apps, Compile: res, Table: table}, nil
}

// Platform is one experiment's virtual testbed: fresh simulator,
// materialised topology, device fleet and scheduler over shared
// artifacts.
type Platform struct {
	Sim     *simtime.Simulator
	Cluster *cluster.Cluster
	// Devices is the FPGA fleet in topology order (empty when the
	// artifact set has no hardware kernels or the topology no cards).
	Devices []*xrt.Device
	// Device is the first card — the single-device view the fixed
	// paper testbed exposes; nil when Devices is empty.
	Device *xrt.Device
	// Server is the scheduler host's server — the paper's single
	// scheduler. Under entry balancing every x86 node runs its own
	// instance (see servers); all share one threshold table.
	Server *sched.Server
	arts   *Artifacts

	// servers holds one scheduler server per cluster node index (nil
	// for non-x86 nodes); servers[X86.Index] == Server.
	servers []*sched.Server
	// appByName indexes the artifact set's applications for the
	// transfer rows the scheduler fleet consumes.
	appByName map[string]*workloads.App
	// transfer holds, per x86 node index, the entry's lazily built
	// migration-cost rows (Fleet.MigrationRow of its server).
	transfer []migrationRows
	// pins is the kernel→card assignment of the affinity policy (nil
	// under every other policy); preconfiguration routes through it so
	// the instrumentation-inserted download honours the partition too.
	pins map[string]int
	// deciding counts, per node index, the processes currently blocked
	// on a scheduling request; they are resident on their entry node
	// and count toward its load.
	deciding []int
	// x86Nodes and armNodes are the cluster's per-class node lists
	// (topology order), the fleet orders of the two load indexes.
	x86Nodes, armNodes []*cluster.Node
	// entryLoads indexes each x86 node's nodeLoad plus the placements
	// made at the current arrival instant that a later arrival of the
	// instant reads. It leaves out a process blocked on a decision:
	// neither of its readers, the entry pick and admission, runs inside
	// one. armLoads indexes each ARM node's Load() and is shared by
	// every scheduler server's fleet.
	// Run queues keep both current through PSServer.OnActive.
	entryLoads, armLoads *sched.LoadIndex
	// slot maps a node index to its position in its class's index.
	slot []int
	// opts carries the ablation switches (zero value = full system).
	opts Options
	// fifo is the FIFO-core admission gate of the X86FIFO ablation.
	fifo *fifoGate
	// launchFree and armFree pool the per-request lifecycle structs
	// (process.go), fault-tracked or not, so steady-state serving
	// recycles them instead of allocating per request.
	launchFree []*launch
	armFree    []*armRun
	// off, cardDown, cut and slowed are the fleet's health: per node
	// index the reasons the node takes no new work, per card whether
	// it failed, the partitioned node pairs, and each degraded pair's
	// transfer-time factor. They read "all up" on a run without a
	// fault or autoscaler spec; only faultRuntime.apply and the
	// autoscaler write them.
	off      []offReason
	cardDown []bool
	cut      map[linkPair]bool
	slowed   map[linkPair]float64
	// faults is the fault-injection runtime of a churn campaign (the
	// timeline, in-flight work registry and resilience report); nil on
	// fault-free runs.
	faults *faultRuntime
	// elastic is the overload-control runtime (admission control and
	// the autoscaler loop); nil unless the cell carries an elastic
	// spec.
	elastic *elasticRuntime
}

// offReason is a set of reasons a node takes no new work.
type offReason uint8

const (
	// offCrashed: a fault crashed the node; its resident work is lost.
	offCrashed offReason = 1 << iota
	// offDrained: a fault drains the node; resident work keeps running.
	offDrained
	// offParked: the autoscaler drained the entry node out of its
	// fleet; resident work keeps running.
	offParked
)

// severed reports whether the a-b pair is partitioned.
func (p *Platform) severed(a, b int) bool {
	return len(p.cut) > 0 && p.cut[pairOf(a, b)]
}

// NewPlatform instantiates the paper testbed for one experiment run.
func NewPlatform(arts *Artifacts) *Platform {
	return NewPlatformOpts(arts, Options{})
}

// SchedStats aggregates scheduling counters across the whole entry
// fleet (one scheduler server per x86 node). On the paper testbed it
// equals p.Server.Stats().
func (p *Platform) SchedStats() sched.Stats {
	var total sched.Stats
	for _, s := range p.servers {
		if s != nil {
			total.Add(s.Stats())
		}
	}
	return total
}

// PolicyName reports the active placement policy ("default" when
// Options.Policy was empty).
func (p *Platform) PolicyName() string { return p.Server.Policy().Name() }

// DeviceReconfigs sums image downloads across the FPGA fleet — every
// Program call that started, whether the scheduler, the
// instrumentation-inserted preconfiguration, or an affinity preload
// issued it. This is the churn metric the affinity policy minimises;
// sched.Stats.ReconfigsStarted counts only the scheduler-issued
// subset.
func (p *Platform) DeviceReconfigs() int {
	total := 0
	for _, d := range p.Devices {
		total += d.Stats().Reconfigurations
	}
	return total
}

// RunFor drives the simulation until the virtual clock reaches d and
// no earlier events remain.
func (p *Platform) RunFor(d time.Duration) { p.Sim.RunUntil(d) }

// Run drains the event queue.
func (p *Platform) Run() { p.Sim.Run() }
