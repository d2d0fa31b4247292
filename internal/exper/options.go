package exper

import (
	"fmt"
	"math"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/sched"
	"xartrek/internal/isa"
	"xartrek/internal/simtime"
	"xartrek/internal/workloads"
	"xartrek/internal/xclbin"
	"xartrek/internal/xrt"
)

// Placement-policy names selectable per platform or per campaign cell
// (Options.Policy; a cell's policy overrides its options'). The empty
// string selects PolicyDefault.
const (
	// PolicyDefault is the paper's placement rule: least-loaded ARM
	// node, lowest-indexed device — bit-identical to the pre-policy
	// scheduler.
	PolicyDefault = "default"
	// PolicyLinkAware weighs migration transfer time and link
	// occupancy against queueing, so a slow cross-rack hop repels ARM
	// placement (sched.LinkAwarePolicy).
	PolicyLinkAware = "link-aware"
	// PolicyAffinity pre-partitions the XCLBIN image set across the
	// FPGA fleet and pins each kernel to its card, cutting
	// reconfiguration churn (sched.AffinityPolicy). The assigned
	// images are preloaded at platform start.
	PolicyAffinity = "affinity"
	// PolicyDeadline spends reconfigurations and fast ARM nodes on
	// critical-SLO-class traffic while batch cohorts pack onto busy
	// nodes and ride resident kernels (sched.DeadlinePolicy). Without
	// a workload every request is classless and the policy behaves
	// like PolicyDefault.
	PolicyDeadline = "deadline"
)

// Options disable individual Xar-Trek design decisions for the
// ablation studies DESIGN.md §5 calls out. The zero value is the full
// system.
type Options struct {
	// X86FIFO replaces the x86 server's processor-sharing run queue
	// with FIFO cores: a process occupies one core exclusively until
	// it finishes. Ablation 1.
	X86FIFO bool `json:"x86_fifo,omitempty"`
	// NoPreconfig drops the instrumentation-inserted FPGA
	// pre-configuration call at main start. Ablation 3.
	NoPreconfig bool `json:"no_preconfig,omitempty"`
	// BlockOnReconfig makes a function whose kernel is being
	// configured wait for the FPGA instead of continuing on a CPU —
	// disabling Algorithm 2's latency hiding (lines 9-18).
	// Ablation 2.
	BlockOnReconfig bool `json:"block_on_reconfig,omitempty"`
	// StaticThresholds disables Algorithm 1: the threshold table
	// stays as step G estimated it. Ablation 4.
	StaticThresholds bool `json:"static_thresholds,omitempty"`
	// Policy selects the placement policy of the scheduler fleet:
	// PolicyDefault (also the empty string), PolicyLinkAware,
	// PolicyAffinity or PolicyDeadline. Unknown names fail platform
	// construction.
	Policy string `json:"policy,omitempty"`
	// LatencyMode selects how serving cells accumulate the
	// completion-latency distribution: LatencyExact (also the empty
	// string) retains every sample and reports exact nearest-rank
	// percentiles; LatencySketch counts samples in log-linear
	// histograms, bounding memory at O(in-flight) for million-request
	// cells at the price of a quantile.DefaultEpsilon value bound on
	// the reported percentiles. Arrivals are drawn lazily in both
	// modes. Unknown names fail the run; only serving-class cells
	// accept the switch.
	LatencyMode string `json:"latency_mode,omitempty"`
	// Shards partitions a serving-class cell into N independent
	// sub-fleets (cluster.PartitionTopology), splits the arrival
	// stream deterministically across them, runs each shard as its own
	// event timeline fanned over the shared worker pool, and merges
	// latency digests and counters into one result (DESIGN.md §13). 0
	// and 1 run the cell as one timeline, byte-identical to pre-shard
	// output. Values above the topology's entry-node count
	// fail the run, as do combinations with fault injection, admission
	// control or autoscaling — those model process-global state a
	// partition cannot preserve. Only serving-class cells accept the
	// switch.
	Shards int `json:"shards,omitempty"`
}

// NewPlatformOpts is NewPlatform with ablation options on the paper
// testbed.
func NewPlatformOpts(arts *Artifacts, opts Options) *Platform {
	p, err := NewPlatformTopo(arts, cluster.PaperTopology(), opts)
	if err != nil {
		// PaperTopology is statically valid.
		panic("exper: paper topology: " + err.Error())
	}
	return p
}

// NewPlatformTopo materialises an arbitrary cluster topology as an
// experiment platform: one run queue per CPU node, one xrt device per
// FPGA card, a per-pair link fleet, and a scheduler server whose
// Algorithm 2 placement scores over all of them through the selected
// placement policy (opts.Policy; the default is least-loaded ARM
// node, lowest-indexed device with the kernel). Under
// cluster.PaperTopology() with the default policy the platform
// reproduces the fixed paper testbed bit-identically.
func NewPlatformTopo(arts *Artifacts, topo cluster.Topology, opts Options) (*Platform, error) {
	sim := simtime.New()
	c, err := cluster.FromTopology(sim, topo)
	if err != nil {
		return nil, err
	}
	var devs []*xrt.Device
	if arts.Compile != nil {
		for range topo.FPGAs {
			devs = append(devs, xrt.OpenDevice(sim, arts.Compile.Platform, xrt.PCIeGen3x16()))
		}
	}
	table := arts.Table.Clone()
	var images []*xclbin.XCLBIN
	if arts.Compile != nil {
		images = arts.Compile.Images
	}
	p := &Platform{Sim: sim, Cluster: c, Devices: devs, arts: arts, opts: opts}
	p.deciding = make([]int, len(c.Nodes))
	p.slot = make([]int, len(c.Nodes))
	p.off, p.cardDown = make([]offReason, len(c.Nodes)), make([]bool, len(devs))
	p.x86Nodes, p.armNodes = c.NodesOfArch(isa.X86_64), c.NodesOfArch(isa.ARM64)
	p.entryLoads, p.armLoads = p.indexLoads(p.x86Nodes), p.indexLoads(p.armNodes)
	if len(devs) > 0 {
		p.Device = devs[0]
	}
	if opts.X86FIFO {
		p.fifo = &fifoGate{p: p, slots: c.X86.Cores}
	}
	p.appByName = make(map[string]*workloads.App, len(arts.Apps))
	for _, a := range arts.Apps {
		p.appByName[a.Name] = a
	}
	policy, pins, err := p.placementPolicy(opts.Policy, images)
	if err != nil {
		return nil, err
	}
	p.pins = pins
	armNodes := make([]int, 0, len(p.armNodes))
	for _, n := range p.armNodes {
		armNodes = append(armNodes, n.Index)
	}
	fleetDevs := make([]sched.Device, 0, len(devs))
	for _, d := range devs {
		fleetDevs = append(fleetDevs, d)
	}
	// One scheduler server per x86 node, each sampling its own node's
	// load, all sharing the cloned threshold table and the device
	// fleet. The host's instance is the paper's single server. Each
	// server's fleet carries transfer context anchored at its own
	// entry node — migrations depart from where the process runs, so
	// two entry nodes can legitimately score the same ARM candidate
	// differently. Loads are the same everywhere: one ARM index serves
	// the whole server fleet.
	p.servers = make([]*sched.Server, len(c.Nodes))
	p.transfer = make([]migrationRows, len(c.Nodes))
	for _, n := range p.x86Nodes {
		node := n
		p.transfer[node.Index] = migrationRows{p: p, entry: node}
		fleet := sched.Fleet{
			ARMNodes:     armNodes,
			Loads:        p.armLoads,
			NodeCores:    func(id int) int { return c.Nodes[id].Cores },
			MigrationRow: p.transfer[node.Index].row,
			LinkQueue: func(id int) int {
				return c.Queued(node, c.Nodes[id])
			},
			Devices: fleetDevs,
			Policy:  policy,
			// A candidate takes placements while it is neither crashed
			// nor drained and its pair with the entry is not cut.
			NodeAvailable: func(id int) bool {
				return p.off[id]&(offCrashed|offDrained) == 0 && !p.severed(node.Index, id)
			},
			DeviceAvailable: func(i int) bool { return !p.cardDown[i] },
		}
		p.servers[node.Index] = sched.NewFleetServer(table, func() int { return p.nodeLoad(node) }, fleet, images)
	}
	p.Server = p.servers[c.X86.Index]
	p.preloadPinnedImages(images)
	return p, nil
}

// migrationCost estimates the uncontended cost of migrating one
// application from its entry node to an ARM node: Popcorn state
// transformation plus the DSM working set over the pair's link — the
// transfer context link-aware placement weighs. Unknown applications
// (no profile) report zero, degrading the policy to least-loaded.
func (p *Platform) migrationCost(entry *cluster.Node, app string, node int) time.Duration {
	a, ok := p.appByName[app]
	if !ok || node < 0 || node >= len(p.Cluster.Nodes) {
		return 0
	}
	xfer := p.Cluster.TransferEstimate(entry, p.Cluster.Nodes[node], a.WorkingSetBytes)
	if cost := a.StateTransformTime() + xfer; cost >= xfer {
		return cost
	}
	// A transfer saturated at the largest Duration stays there.
	return math.MaxInt64
}

// migrationRows serves one entry node's Fleet.MigrationRow. Each
// application's row is built from migrationCost on the first decision
// that scores it, so policies that never weigh links build none.
type migrationRows struct {
	p     *Platform
	entry *cluster.Node
	byApp map[string][]float64
}

// row returns the application's transfer row in ARM fleet order, nil
// for an application without a profile (whose costs are all zero).
func (m *migrationRows) row(app string) []float64 {
	if r, ok := m.byApp[app]; ok {
		return r
	}
	if _, ok := m.p.appByName[app]; !ok {
		return nil
	}
	r := make([]float64, len(m.p.armNodes))
	for i, n := range m.p.armNodes {
		r[i] = m.p.migrationCost(m.entry, app, n.Index).Seconds()
	}
	if m.byApp == nil {
		m.byApp = make(map[string][]float64)
	}
	m.byApp[app] = r
	return r
}

// placementPolicy resolves an Options.Policy name. For PolicyAffinity
// it also builds the kernel→card pin map by round-robining the
// compiled image set across the device fleet — card i%N owns image i
// and every kernel it carries.
func (p *Platform) placementPolicy(name string, images []*xclbin.XCLBIN) (sched.PlacementPolicy, map[string]int, error) {
	switch name {
	case "", PolicyDefault:
		return nil, nil, nil
	case PolicyLinkAware:
		return sched.LinkAwarePolicy{}, nil, nil
	case PolicyAffinity:
		pins := partitionKernels(images, len(p.Devices))
		return sched.NewAffinityPolicy(pins), pins, nil
	case PolicyDeadline:
		return sched.DeadlinePolicy{}, nil, nil
	default:
		return nil, nil, fmt.Errorf("exper: %w", checkPolicy(name))
	}
}

// checkPolicy reports whether name selects a placement policy: empty
// (PolicyDefault), PolicyDefault, PolicyLinkAware, PolicyAffinity or
// PolicyDeadline.
func checkPolicy(name string) error {
	switch name {
	case "", PolicyDefault, PolicyLinkAware, PolicyAffinity, PolicyDeadline:
		return nil
	}
	return fmt.Errorf("unknown placement policy %q (want %s, %s, %s or %s)",
		name, PolicyDefault, PolicyLinkAware, PolicyAffinity, PolicyDeadline)
}

// partitionKernels assigns image i to card i%n and pins each kernel to
// its image's card (first image wins for kernels carried by several).
// With no cards the map is empty and the affinity policy degrades to
// DefaultPolicy.
func partitionKernels(images []*xclbin.XCLBIN, n int) map[string]int {
	pins := make(map[string]int)
	if n == 0 {
		return pins
	}
	for i, img := range images {
		card := i % n
		for _, k := range img.Kernels {
			if _, seen := pins[k.KernelName]; !seen {
				pins[k.KernelName] = card
			}
		}
	}
	return pins
}

// preloadPinnedImages warms an affinity-partitioned fleet: each card
// starts downloading its first assigned image at time zero, so the hot
// kernels are resident before the first FPGA-class decision instead of
// being configured on demand. No-op without affinity pins.
func (p *Platform) preloadPinnedImages(images []*xclbin.XCLBIN) {
	if p.pins == nil {
		return
	}
	for i, img := range images {
		if i >= len(p.Devices) {
			// Later images in a card's round-robin share load on
			// demand through the policy's ReconfigOrder.
			break
		}
		// Ignore errors: a busy card just loads on demand later.
		_ = p.Devices[i].Program(img, nil)
	}
}

// indexLoads builds a load index over nodes, in the given order, that
// each node's run queue keeps current as jobs enter and leave it, and
// records each node's position in p.slot.
func (p *Platform) indexLoads(nodes []*cluster.Node) *sched.LoadIndex {
	idx := sched.NewLoadIndex(len(nodes))
	for pos, n := range nodes {
		p.slot[n.Index] = pos
		n.Pool.OnActive(func(delta int) { idx.Add(pos, delta) })
	}
	return idx
}

// addEntryLoad moves an x86 node's entry-index load by delta for load
// its run queue does not carry: processes queued behind FIFO cores and
// same-instant placements.
func (p *Platform) addEntryLoad(n *cluster.Node, delta int) {
	if n.Arch == isa.X86_64 {
		p.entryLoads.Add(p.slot[n.Index], delta)
	}
}

// entryOK is the entry index's availability filter: the node has no
// reason to refuse new arrivals — not crashed, drained or parked. Retry
// re-placement picks through it too, so a retry racing a scale-down
// cannot land on the node being parked.
func (p *Platform) entryOK(pos int) bool { return p.off[p.x86Nodes[pos].Index] == 0 }

// armOK is the ARM index's filter for the no-scheduler baselines: the
// node is neither crashed nor drained.
func (p *Platform) armOK(pos int) bool {
	return p.off[p.armNodes[pos].Index]&(offCrashed|offDrained) == 0
}

// nodeLoad samples the paper's process-count metric on one x86 node:
// processes in its run queue, plus any queued behind FIFO cores (host
// only), plus processes blocked on a scheduling decision there.
func (p *Platform) nodeLoad(n *cluster.Node) int {
	load := n.Load() + p.deciding[n.Index]
	if p.fifo != nil && n == p.Cluster.X86 {
		load += len(p.fifo.queue)
	}
	return load
}

// x86Load samples the scheduler host's load (the x86LOAD of
// Algorithm 2 on the paper testbed).
func (p *Platform) x86Load() int { return p.nodeLoad(p.Cluster.X86) }

// serverFor returns the scheduler server of an entry node, falling
// back to the host's instance.
func (p *Platform) serverFor(entry *cluster.Node) *sched.Server {
	if entry != nil && entry.Index < len(p.servers) && p.servers[entry.Index] != nil {
		return p.servers[entry.Index]
	}
	return p.Server
}

// entryExec routes one process's x86-class compute onto its entry
// node, as a segment of request l (nil for work outside the launch
// lifecycle). The FIFO-core ablation gates the scheduler host only
// (the paper testbed's single x86 server). The host never crashes —
// fault validation rejects that — so its work needs no token. A
// tracked request whose entry crashed before this segment started
// (while it waited out a reconfiguration, say) is disrupted and
// re-placed instead of run.
func (p *Platform) entryExec(l *launch, entry *cluster.Node, work time.Duration, done func()) {
	if entry == nil || entry == p.Cluster.X86 {
		p.x86Exec(work, done)
		return
	}
	if l != nil && p.off[entry.Index]&offCrashed != 0 {
		p.faults.disrupt(l)
		return
	}
	submit(p.track(l, entry.Index, -1), entry.Pool, work, done)
}

// x86Exec routes scheduler-host compute through the configured CPU
// model.
func (p *Platform) x86Exec(work time.Duration, done func()) {
	if p.fifo != nil {
		p.fifo.exec(work, done)
		return
	}
	p.Cluster.X86.ExecTransient(work, done)
}

// fifoJob is one queued FIFO-core job.
type fifoJob struct {
	work time.Duration
	done func()
}

// fifoGate admits at most `slots` concurrent jobs into the x86 pool;
// with occupancy at or below the core count the processor-sharing pool
// runs each admitted job at rate one, so admission-limited PS is exact
// FIFO-core scheduling.
type fifoGate struct {
	p       *Platform
	slots   int
	running int
	queue   []fifoJob
}

// exec runs or enqueues the job.
func (g *fifoGate) exec(work time.Duration, done func()) {
	if g.running >= g.slots {
		g.queue = append(g.queue, fifoJob{work: work, done: done})
		g.p.addEntryLoad(g.p.Cluster.X86, 1)
		return
	}
	g.admit(fifoJob{work: work, done: done})
}

// admit starts a job on a free core.
func (g *fifoGate) admit(j fifoJob) {
	g.running++
	g.p.Cluster.X86.ExecTransient(j.work, func() {
		g.running--
		if len(g.queue) > 0 {
			next := g.queue[0]
			g.queue = g.queue[1:]
			g.p.addEntryLoad(g.p.Cluster.X86, -1)
			g.admit(next)
		}
		if j.done != nil {
			j.done()
		}
	})
}
