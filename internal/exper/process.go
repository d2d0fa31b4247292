package exper

import (
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/threshold"
	"xartrek/internal/workloads"
	"xartrek/internal/xclbin"
)

// RunResult records one application run.
type RunResult struct {
	App   string
	Mode  Mode
	Start time.Duration
	End   time.Duration
	// Target is where the selected function executed.
	Target threshold.Target
	// Entry is the index of the x86 node the process entered on (0,
	// the scheduler host, except under entry balancing).
	Entry int
}

// Elapsed is the run's total execution time.
func (r RunResult) Elapsed() time.Duration { return r.End - r.Start }

// LaunchApp schedules one application instance at virtual time `at` on
// the scheduler host — the paper's setup, where every process starts on
// the single x86 server. The lifecycle mirrors the instrumented binary:
//
//  1. main starts on the entry x86 node; under Xar-Trek the inserted
//     __xar_fpga_preconfig call kicks off XCLBIN download so the
//     kernel is ready without waiting (Section 3.1),
//  2. the non-kernel part runs on the entry node under processor
//     sharing,
//  3. at the selected function's call site the dispatch wrapper
//     consults the entry node's scheduler (Xar-Trek) or uses the
//     mode's fixed target (baselines),
//  4. on return, the scheduler client reports the observed execution
//     time, driving Algorithm 1's dynamic threshold update.
//
// done may be nil.
func (p *Platform) LaunchApp(app *workloads.App, mode Mode, at time.Duration, done func(RunResult)) {
	p.LaunchAppOnClass(p.Cluster.X86, app, mode, "", at, done)
}

// LaunchAppOnClass is LaunchApp with an explicit entry node — the
// x86-class node the process starts on — and the requesting cohort's
// SLO class ("critical", "batch", or empty for classless traffic); the
// class rides the request into the scheduler's placement context so
// class-aware policies can discriminate. Cluster-scale serving
// campaigns balance arrivals across entry nodes; each entry node runs
// its own scheduler server instance sampling its own load, all sharing
// one threshold table (Algorithm 1 updates are platform-wide, as if
// the servers gossiped the table).
//
// The lifecycle state lives in a pooled launch struct whose phase
// continuations are bound once, so in steady state a request costs no
// per-request closure allocations — at a million requests per cell the
// closure chain this replaces was the engine's dominant allocation
// source, and with it most of the GC time.
func (p *Platform) LaunchAppOnClass(entry *cluster.Node, app *workloads.App, mode Mode, class string, at time.Duration, done func(RunResult)) {
	l := p.getLaunch()
	l.entry, l.app, l.mode, l.class, l.done = entry, app, mode, class, done
	p.Sim.At(at, l.beginFn)
}

// launch is the per-request lifecycle state of one application run:
// entry → prologue → kernel dispatch → finish. The continuation fields
// capture only the struct pointer and are created once per pooled
// struct, never per request.
type launch struct {
	p *Platform
	// entry is the request's current entry node; a fault retry may
	// move it.
	entry *cluster.Node
	app   *workloads.App
	mode  Mode
	class string
	start time.Duration
	done  func(RunResult)
	// phase is the phase the request is in, phasePrologue or
	// phaseKernel: the one a fault retry re-enters.
	phase int
	// tokens, attempts and disruptedAt are the request's fault
	// tracking, untouched on fault-free runs: its segment tokens since
	// the last disruption, the disruptions so far, and the time of the
	// first one (-1 until it happens).
	tokens      []*segToken
	attempts    int
	disruptedAt time.Duration

	beginFn  func()
	kernelFn func()
	retryFn  func()
	finishFn func(threshold.Target)
	// x86Fn finishes the request on an x86 target: the completion
	// execX86 hands the entry node's run queue.
	x86Fn func()
}

func (p *Platform) getLaunch() *launch {
	if n := len(p.launchFree); n > 0 {
		l := p.launchFree[n-1]
		p.launchFree[n-1] = nil
		p.launchFree = p.launchFree[:n-1]
		return l
	}
	l := &launch{p: p, disruptedAt: -1}
	l.beginFn = l.begin
	l.kernelFn = l.kernel
	l.retryFn = l.retry
	l.finishFn = l.finish
	l.x86Fn = func() { l.finish(threshold.TargetX86) }
	return l
}

// putLaunch recycles a finished launch, tracked or not. Its token
// slice is cleared to full capacity, so the pool keeps no stale
// pointers; a disrupted chain that still holds one of those tokens
// finds it dead and never reaches the launch.
func (p *Platform) putLaunch(l *launch) {
	clear(l.tokens[:cap(l.tokens)])
	l.entry, l.app, l.class, l.done = nil, nil, "", nil
	l.tokens, l.attempts, l.disruptedAt = l.tokens[:0], 0, -1
	p.launchFree = append(p.launchFree, l)
}

func (l *launch) begin() {
	p := l.p
	l.start = p.Sim.Now()
	if l.mode == ModeXarTrek && !p.opts.NoPreconfig {
		p.preconfigure(l.app)
	}
	l.prologue()
}

// prologue runs the app's non-kernel part on the entry node.
func (l *launch) prologue() {
	l.phase = phasePrologue
	if l.app.NonKernel <= 0 {
		l.kernel()
		return
	}
	l.p.entryExec(l, l.entry, l.app.NonKernel, l.kernelFn)
}

func (l *launch) kernel() {
	l.phase = phaseKernel
	l.p.runKernel(l, l.entry, l.app, l.mode, l.class, l.finishFn)
}

// retry re-enters the phase a fault killed, on a freshly chosen entry
// node — which re-consults the placement policy over the surviving
// fleet.
func (l *launch) retry() {
	l.entry = l.p.leastLoadedX86()
	if l.phase == phasePrologue {
		l.prologue()
	} else {
		l.kernel()
	}
}

func (l *launch) finish(target threshold.Target) {
	p := l.p
	res := RunResult{App: l.app.Name, Mode: l.mode, Start: l.start, End: p.Sim.Now(), Target: target, Entry: l.entry.Index}
	if l.mode == ModeXarTrek && l.app.Migratable && !p.opts.StaticThresholds {
		// __xar_sched_fini: report the run so Algorithm 1 refines the
		// thresholds. Errors mean the app has no threshold row
		// (background load); ignore per the paper's design (MG-B is not
		// instrumented).
		_, _ = p.serverFor(l.entry).Report(l.app.Name, target, res.Elapsed())
	}
	if l.disruptedAt >= 0 {
		// A disrupted request that still completed: its recovery time.
		p.faults.recovery.add(p.Sim.Now() - l.disruptedAt)
	}
	if l.done != nil {
		l.done(res)
	}
	p.putLaunch(l)
}

// preconfigure starts downloading the image that carries the app's
// kernel onto the lowest-indexed idle device, unless the kernel is
// already resident — or already being downloaded — somewhere in the
// fleet. Under the affinity policy the download goes to the kernel's
// pinned card only (or nowhere while that card is busy), so the
// instrumentation-inserted preconfiguration cannot churn another
// kernel's card either.
func (p *Platform) preconfigure(app *workloads.App) {
	if len(p.Devices) == 0 || !app.HWCapable {
		return
	}
	for _, dev := range p.Devices {
		if dev.HasKernel(app.KernelName) || dev.KernelPending(app.KernelName) {
			return
		}
	}
	img, ok := p.images(app)
	if !ok {
		return
	}
	if p.pins != nil {
		if card, ok := p.pins[app.KernelName]; ok && card >= 0 && card < len(p.Devices) {
			if !p.Devices[card].Reconfiguring() {
				_ = p.Devices[card].Program(img, nil)
			}
			return
		}
	}
	for _, dev := range p.Devices {
		if dev.Reconfiguring() {
			continue
		}
		// Ignore a losing race with another process's preconfigure.
		_ = dev.Program(img, nil)
		return
	}
}

// images locates the XCLBIN holding the app's kernel.
func (p *Platform) images(app *workloads.App) (*xclbin.XCLBIN, bool) {
	if p.arts.Compile == nil {
		return nil, false
	}
	return p.arts.Compile.ImageFor(app.KernelName)
}

// runKernel executes the selected function once on the mode's target.
// class is the requesting cohort's SLO class (empty for classless
// traffic); only the Xar-Trek scheduler consults it. l is the request
// the execution belongs to, nil for callers outside the launch
// lifecycle (which are never fault-tracked).
func (p *Platform) runKernel(l *launch, entry *cluster.Node, app *workloads.App, mode Mode, class string, finish func(threshold.Target)) {
	switch mode {
	case ModeVanillaX86:
		p.execX86(l, entry, app, finish)
	case ModeVanillaARM:
		p.execVanillaARM(l, app, finish)
	case ModeVanillaFPGA:
		p.execVanillaFPGA(l, entry, app, finish)
	case ModeXarTrek:
		p.execXarTrek(l, entry, app, class, finish)
	default:
		p.execX86(l, entry, app, finish)
	}
}

// execX86 runs the kernel on the entry node's CPU model. A request's
// finish is its launch's own, whose x86 completion the launch binds
// once; only callers outside the lifecycle allocate one here.
func (p *Platform) execX86(l *launch, entry *cluster.Node, app *workloads.App, finish func(threshold.Target)) {
	if l != nil {
		p.entryExec(l, entry, app.X86KernelTime(), l.x86Fn)
		return
	}
	p.entryExec(nil, entry, app.X86KernelTime(), func() { finish(threshold.TargetX86) })
}

// leastLoadedX86 picks the entry node the serving front end assigns an
// arriving request to: the eligible node with the least entry-index
// load — nodeLoad plus the placements already made at the current
// arrival instant — ties toward the lower index.
func (p *Platform) leastLoadedX86() *cluster.Node {
	pos, ok := p.entryLoads.Least(p.entryOK)
	if !ok {
		// Every x86 node is crashed or draining: the scheduler host
		// (which fault validation keeps alive) absorbs arrivals even
		// while draining, so the front end never wedges.
		return p.Cluster.X86
	}
	return p.x86Nodes[pos]
}

// leastLoadedARM picks the ARM node the no-scheduler baselines land
// on: least loaded, ties toward the lower index — the same rule the
// fleet scheduler applies, so baselines scale with the topology too.
// nil when no ARM node accepts placements.
func (p *Platform) leastLoadedARM() *cluster.Node {
	pos, ok := p.armLoads.Least(p.armOK)
	if !ok {
		return nil
	}
	return p.armNodes[pos]
}

// execARM performs software migration from the entry node onto the
// given ARM node: Popcorn state transformation, DSM working-set
// transfer over the pair's link, then the kernel on the node's pool
// with its DSM fault traffic occupying the link concurrently. The
// process has left the entry pool, so that node's load drops — exactly
// the relief the paper exploits. With many migrated pointer-chasing
// instances a 1 Gbps link serialises and ARM migration stops paying
// off (Section 4.4's profitability cliff).
func (p *Platform) execARM(l *launch, entry *cluster.Node, app *workloads.App, node *cluster.Node, finish func(threshold.Target)) {
	a := p.getARMRun()
	a.l, a.entry, a.node, a.app, a.finish = l, entry, node, app, finish
	// State transformation runs on the entry node as a timer, not a
	// job; its token has no job to cancel, so transform checks it.
	a.tok = p.track(l, entry.Index, -1)
	p.Sim.After(app.StateTransformTime(), a.transformFn)
}

// armRun is the pooled state of one ARM migration chain: state
// transformation, working-set transfer, then kernel and DSM stream
// joined by a pending count. Like launch, its continuations are bound
// once so a migration allocates nothing in steady state. tok is the
// state-transformation token, nil when untracked. The pair's link is
// fetched in each event that submits to it, never kept: a link whose
// last transfer left serves another pair. A chain a fault
// disrupts is abandoned, never recycled: its transform timer may still
// fire and must find tok dead.
type armRun struct {
	p       *Platform
	l       *launch
	entry   *cluster.Node
	node    *cluster.Node
	app     *workloads.App
	finish  func(threshold.Target)
	tok     *segToken
	pending int

	transformFn func()
	xferFn      func()
	partFn      func()
}

func (p *Platform) getARMRun() *armRun {
	if n := len(p.armFree); n > 0 {
		a := p.armFree[n-1]
		p.armFree[n-1] = nil
		p.armFree = p.armFree[:n-1]
		return a
	}
	a := &armRun{p: p}
	a.transformFn = a.transform
	a.xferFn = a.xfer
	a.partFn = a.part
	return a
}

func (p *Platform) putARMRun(a *armRun) {
	a.l, a.entry, a.node, a.app, a.finish, a.tok = nil, nil, nil, nil, nil, nil
	p.armFree = append(p.armFree, a)
}

// transform fires when Popcorn state transformation ends: the DSM
// working-set transfer enters the pair's link, registered on the
// destination so a destination crash or a pair partition kills it.
// Link degradation stretches it via linkWork.
func (a *armRun) transform() {
	p := a.p
	if a.tok != nil {
		if !a.tok.settle() {
			// The entry crashed mid-transform; the disruption already
			// re-placed the request.
			return
		}
		a.tok = nil
		if p.off[a.node.Index]&offCrashed != 0 || p.severed(a.entry.Index, a.node.Index) {
			// The destination crashed or the pair partitioned during
			// state transformation: the migration cannot land.
			p.faults.disrupt(a.l)
			return
		}
	}
	link := p.Cluster.Link(a.entry, a.node)
	submit(p.track(a.l, a.node.Index, a.entry.Index), link.PS, p.linkWork(a.entry, a.node, link.Net.TransferTime(a.app.WorkingSetBytes)), a.xferFn)
}

// xfer fires when the working set has landed: the kernel runs on the
// node's pool while the DSM fault traffic occupies the link
// concurrently; both must drain before the migration finishes.
func (a *armRun) xfer() {
	p := a.p
	a.pending = 2
	submit(p.track(a.l, a.node.Index, -1), a.node.Pool, a.app.ARMKernelTime(), a.partFn)
	if dsm := a.app.DSMLinkWork(); dsm > 0 {
		submit(p.track(a.l, a.node.Index, a.entry.Index), p.Cluster.Link(a.entry, a.node).PS, p.linkWork(a.entry, a.node, dsm), a.partFn)
	} else {
		a.part()
	}
}

func (a *armRun) part() {
	a.pending--
	if a.pending == 0 {
		finish := a.finish
		a.p.putARMRun(a)
		finish(threshold.TargetARM)
	}
}

// execVanillaARM models the Vanilla Linux/ARM baseline: the entire
// application runs on an ARM server (no x86 involvement beyond the
// already-executed prologue, which the baseline also pays on ARM's
// slower cores — approximated by the kernel-derived slowdown ratio).
// Topologies without ARM nodes fall back to the scheduler host.
func (p *Platform) execVanillaARM(l *launch, app *workloads.App, finish func(threshold.Target)) {
	node := p.leastLoadedARM()
	if node == nil {
		p.execX86(l, p.Cluster.X86, app, finish)
		return
	}
	submit(p.track(l, node.Index, -1), node.Pool, app.ARMKernelTime(), func() { finish(threshold.TargetARM) })
}

// execFPGAInvoke performs one hardware invocation on a device that
// already has the kernel: host-side OpenCL setup on the entry node,
// then PCIe in, pipeline, PCIe out.
func (p *Platform) execFPGAInvoke(l *launch, entry *cluster.Node, app *workloads.App, devIdx int, finish func(threshold.Target)) {
	if devIdx < 0 || devIdx >= len(p.Devices) {
		devIdx = 0
	}
	dev := p.Devices[devIdx]
	p.entryExec(l, entry, app.FPGAFixedOverhead, func() {
		if p.cardDown[devIdx] {
			// The card died between the decision and the invocation:
			// degrade gracefully to CPU execution.
			p.faults.res.FPGAFallbacks++
			p.execX86(l, entry, app, finish)
			return
		}
		tok := p.track(l, len(p.Cluster.Nodes)+devIdx, -1)
		dev.Invoke(app.KernelName, app.Trips, app.BytesIn, app.BytesOut, func(err error) {
			if tok != nil && !tok.settle() {
				// The card failed mid-invocation; the disruption
				// already re-placed the request.
				return
			}
			if err != nil {
				// Kernel vanished (reconfiguration race): fall back
				// to the CPU, as the real runtime would.
				p.execX86(l, entry, app, finish)
				return
			}
			finish(threshold.TargetFPGA)
		})
	})
}

// execVanillaFPGA is the always-FPGA baseline of Figures 3-6: the
// traditional flow configures the FPGA when the accelerated call first
// needs it, so invocations wait for any in-flight or required
// configuration. The retry poll stands in for blocking on the OpenCL
// context. With a device fleet the invocation uses the lowest-indexed
// card carrying the kernel and configures the lowest-indexed idle card
// otherwise.
func (p *Platform) execVanillaFPGA(l *launch, entry *cluster.Node, app *workloads.App, finish func(threshold.Target)) {
	if len(p.Devices) == 0 || !app.HWCapable {
		p.execX86(l, entry, app, finish)
		return
	}
	const retry = 10 * time.Millisecond
	var attempt func()
	attempt = func() {
		for i, dev := range p.Devices {
			if !p.cardDown[i] && dev.HasKernel(app.KernelName) {
				p.execFPGAInvoke(l, entry, app, i, finish)
				return
			}
		}
		for i, dev := range p.Devices {
			// A download that will deliver this kernel is already in
			// flight on some card (and the card is usable): wait for it
			// instead of duplicating the image onto another card.
			if !p.cardDown[i] && dev.KernelPending(app.KernelName) {
				p.Sim.After(retry, attempt)
				return
			}
		}
		img, ok := p.images(app)
		if !ok {
			p.execX86(l, entry, app, finish)
			return
		}
		for i, dev := range p.Devices {
			if p.cardDown[i] || dev.Reconfiguring() {
				continue
			}
			if err := dev.Program(img, attempt); err == nil {
				return
			}
		}
		// Every card is reconfiguring (or rejected the program):
		// poll, standing in for blocking on the OpenCL context.
		p.Sim.After(retry, attempt)
	}
	attempt()
}

// execXarTrek consults the entry node's scheduler server (Algorithm 2)
// and runs the kernel on the decided target and placement.
func (p *Platform) execXarTrek(l *launch, entry *cluster.Node, app *workloads.App, class string, finish func(threshold.Target)) {
	if !app.Migratable {
		p.execX86(l, entry, app, finish)
		return
	}
	// The requesting process is itself resident on its entry node
	// while it waits for the decision; that node's load counts it (the
	// paper's load metric counts processes, not runnable jobs). The
	// entry index needs no matching step: its readers, the entry pick
	// and admission, never run inside a decision.
	p.deciding[entry.Index]++
	d, err := p.serverFor(entry).DecideClass(app.Name, app.KernelName, class)
	p.deciding[entry.Index]--
	if err != nil {
		p.execX86(l, entry, app, finish)
		return
	}
	if p.opts.BlockOnReconfig && d.ReconfigStarted {
		// Ablation 2: instead of hiding the reconfiguration latency
		// on a CPU (Algorithm 2 lines 9-18), the process blocks until
		// the kernel is resident and then runs in hardware — the
		// traditional accelerator flow's behaviour.
		p.execVanillaFPGA(l, entry, app, finish)
		return
	}
	switch d.Target {
	case threshold.TargetARM:
		p.execARM(l, entry, app, p.Cluster.Nodes[d.ARMNode], finish)
	case threshold.TargetFPGA:
		p.execFPGAInvoke(l, entry, app, d.Device, finish)
	default:
		p.execX86(l, entry, app, finish)
	}
}
