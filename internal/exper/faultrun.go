package exper

import (
	"fmt"
	"math"
	"slices"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/faults"
	"xartrek/internal/simtime"
)

// FaultResult is the resilience report of one serving run under fault
// injection: what the timeline did, what it cost, and how fast the
// system recovered. It is nil on fault-free runs, keeping their JSON
// byte-identical to pre-fault output.
type FaultResult struct {
	// Events is the number of timeline events applied within the
	// horizon.
	Events int `json:"events"`
	// RequestsLost counts requests dropped after exhausting the retry
	// budget.
	RequestsLost int `json:"requests_lost"`
	// RetriesExhausted counts requests that consumed their full retry
	// budget (faults.Spec.Retries, clamped to faults.MaxRetryCap).
	// Today every lost request is a budget exhaustion, so it equals
	// RequestsLost; it is its own counter so the budget cap stays
	// observable if losses ever gain other causes. Omitted when zero,
	// keeping pre-cap fault reports byte-identical.
	RetriesExhausted int `json:"retries_exhausted,omitempty"`
	// RequestsRetried counts re-placement attempts scheduled (one
	// disrupted request may retry several times).
	RequestsRetried int `json:"requests_retried"`
	// RequestsDisrupted counts distinct requests hit by at least one
	// fault.
	RequestsDisrupted int `json:"requests_disrupted"`
	// FPGAFallbacks counts hardware invocations degraded to CPU
	// execution because their card failed (at invoke time or
	// mid-invocation).
	FPGAFallbacks int `json:"fpga_fallbacks"`
	// Availability is completed/offered over the horizon.
	Availability float64 `json:"availability"`
	// RecoveryP50 and RecoveryP99 are percentiles of the disruption-to-
	// completion time over disrupted requests that still completed:
	// how long a request hit by a fault took to finish from the moment
	// it was first disrupted.
	RecoveryP50 time.Duration `json:"recovery_p50"`
	RecoveryP99 time.Duration `json:"recovery_p99"`
	// NodeDownSeconds and DeviceDownSeconds integrate crashed-node and
	// failed-card counts over the horizon (drains do not count — a
	// draining node still serves its resident work).
	NodeDownSeconds   float64 `json:"node_down_seconds"`
	DeviceDownSeconds float64 `json:"device_down_seconds"`
	// ClassP99 is the per-application p99 completion latency under
	// churn — the per-class tail the availability table reports.
	ClassP99 map[string]time.Duration `json:"class_p99,omitempty"`
}

// Request phases a retry can re-enter: the entry-node prologue or the
// kernel dispatch (which re-consults the scheduler, so a retried
// request is re-placed through the active placement policy).
const (
	phasePrologue = iota
	phaseKernel
)

// maxRetryBackoff caps one retry's exponential backoff delay: late
// attempts wait at most this long, and a shift that would overflow
// (or otherwise produce a non-positive delay) clamps here instead of
// degenerating into zero-delay retries.
const maxRetryBackoff = 10 * time.Second

// segToken registers one cancellable work segment of a request (a PS
// job on a node, a transfer on a link, the state-transformation timer,
// or an FPGA invocation) with the fault runtime, so a fault event can
// kill exactly the work resident on its target. Tokens are pooled on
// the runtime: the segment's holder (the PS completion, the transform
// timer or the device callback) settles its token as its last use of
// it, which returns it to the pool, while a token a fault killed is
// never reused — an abandoned callback may still read it — and is left
// to the GC.
type segToken struct {
	l *launch
	// job is the pooled PS job running the segment, valid until its
	// done returns or it is cancelled; nil for the state-transformation
	// timer and device invocations, whose callbacks settle the token
	// themselves.
	job *simtime.PSJob
	// next is the continuation fire runs once the job completes.
	next func()
	// reg is the owning registry: the segment's node (a transfer's
	// destination), or len(nodes)+card for an FPGA invocation.
	reg int
	// other is the far endpoint of a link transfer (-1 otherwise).
	other int
	// slot is the token's position in its registry slice.
	slot int
	dead bool
	// fireFn is fire bound once: the job's completion callback.
	fireFn func()
}

// linkPair is an unordered node-index pair.
type linkPair struct{ lo, hi int }

func pairOf(a, b int) linkPair {
	if a > b {
		a, b = b, a
	}
	return linkPair{lo: a, hi: b}
}

// faultRuntime executes one cell's fault timeline against a platform:
// it writes node, card and link health into the platform's fleet
// state, registers in-flight work, kills and re-places it when its
// substrate fails, and accumulates the resilience metrics. One runtime
// belongs to one platform (and one simulator), so no locking is needed
// — campaign parallelism is across cells, never within one.
type faultRuntime struct {
	p          *Platform
	maxRetries int
	backoff    time.Duration
	horizon    time.Duration

	// downSince / devDownSince record when a target went down, for
	// the down-seconds integrals.
	downSince    []time.Duration
	devDownSince []time.Duration

	// tokens[i] holds the live segments resident on node i (compute,
	// plus transfers whose destination is i); cards follow the nodes,
	// so tokens[len(nodes)+d] holds the in-flight invocations on card d.
	tokens [][]*segToken
	// free pools settled tokens for track.
	free []*segToken

	res FaultResult
	// recovery is the disruption-to-completion distribution, in the
	// cell's latency mode (Options.LatencyMode).
	recovery *latDigest
}

// newFaultRuntime resolves the spec's targets against the platform's
// topology, expands the timeline from (spec, seed) and schedules every
// event on the simulator. The scheduler host must stay alive — it is
// the control plane every request consults — so crashing it (by event
// or by crash churn) is rejected; draining it is allowed.
func newFaultRuntime(p *Platform, spec *faults.Spec, seed int64, horizon time.Duration, sketch bool) (*faultRuntime, error) {
	timeline, err := spec.Timeline(seed, horizon)
	if err != nil {
		return nil, err
	}
	nodeByName := make(map[string]int, len(p.Cluster.Nodes))
	for i, n := range p.Cluster.Nodes {
		nodeByName[n.Name] = i
	}
	fpgaByName := make(map[string]int, len(p.Cluster.Topo.FPGAs))
	for i, f := range p.Cluster.Topo.FPGAs {
		fpgaByName[f.Name] = i
	}
	rt := &faultRuntime{
		p:            p,
		maxRetries:   spec.Retries(),
		backoff:      spec.Backoff(),
		horizon:      horizon,
		downSince:    make([]time.Duration, len(p.Cluster.Nodes)),
		devDownSince: make([]time.Duration, len(p.Devices)),
		tokens:       make([][]*segToken, len(p.Cluster.Nodes)+len(p.Devices)),
		recovery:     newLatDigest(sketch),
	}
	host := p.Cluster.X86.Name
	type resolved struct {
		ev   faults.Event
		node int
		dev  int
		pair linkPair
	}
	events := make([]resolved, 0, len(timeline))
	for i, ev := range timeline {
		r := resolved{ev: ev, node: -1, dev: -1}
		switch ev.Kind {
		case faults.NodeDown, faults.NodeUp, faults.NodeDrain, faults.NodeUndrain:
			idx, ok := nodeByName[ev.Node]
			if !ok {
				return nil, fmt.Errorf("faults: event %d: unknown node %q in topology %s", i, ev.Node, p.Cluster.Topo.Name)
			}
			if ev.Kind == faults.NodeDown && ev.Node == host {
				return nil, fmt.Errorf("faults: event %d: cannot crash the scheduler host %q (drain it instead)", i, host)
			}
			r.node = idx
		case faults.FPGADown, faults.FPGAUp:
			idx, ok := fpgaByName[ev.FPGA]
			if !ok {
				return nil, fmt.Errorf("faults: event %d: unknown fpga %q in topology %s", i, ev.FPGA, p.Cluster.Topo.Name)
			}
			if idx >= len(p.Devices) {
				// CPU-only artifact sets materialise no devices; the
				// event then has nothing to act on.
				return nil, fmt.Errorf("faults: event %d: fpga %q has no materialised device", i, ev.FPGA)
			}
			r.dev = idx
		case faults.LinkDegrade, faults.LinkPartition, faults.LinkRestore:
			a, ok := nodeByName[ev.A]
			if !ok {
				return nil, fmt.Errorf("faults: event %d: unknown node %q in topology %s", i, ev.A, p.Cluster.Topo.Name)
			}
			b, ok := nodeByName[ev.B]
			if !ok {
				return nil, fmt.Errorf("faults: event %d: unknown node %q in topology %s", i, ev.B, p.Cluster.Topo.Name)
			}
			r.pair = pairOf(a, b)
		}
		events = append(events, r)
	}
	p.cut, p.slowed = make(map[linkPair]bool), make(map[linkPair]float64)
	// The timeline is sorted by time, so its events fire in slice order
	// and one chain carries them: the heap holds the next one only, and
	// the k-th firing applies events[k].
	chain, next := p.Sim.NewChain(), 0
	fire := func() {
		r := events[next]
		next++
		rt.apply(r.ev, r.node, r.dev, r.pair)
	}
	for _, r := range events {
		chain.At(time.Duration(r.ev.At), fire)
	}
	return rt, nil
}

// apply executes one timeline event at its firing time, writing the
// platform's fleet health.
func (rt *faultRuntime) apply(ev faults.Event, node, dev int, pair linkPair) {
	p := rt.p
	rt.res.Events++
	now := p.Sim.Now()
	switch ev.Kind {
	case faults.NodeDown:
		if p.off[node]&offCrashed != 0 {
			return
		}
		p.off[node] |= offCrashed
		rt.downSince[node] = now
		rt.kill(node, nil)
	case faults.NodeUp:
		if p.off[node]&offCrashed == 0 {
			return
		}
		p.off[node] &^= offCrashed
		rt.res.NodeDownSeconds += (now - rt.downSince[node]).Seconds()
	case faults.NodeDrain:
		p.off[node] |= offDrained
	case faults.NodeUndrain:
		p.off[node] &^= offDrained
	case faults.FPGADown:
		if p.cardDown[dev] {
			return
		}
		p.cardDown[dev] = true
		rt.devDownSince[dev] = now
		// In-flight invocations are lost and their requests re-placed
		// — which re-consults the scheduler with the card now
		// unavailable, so the kernel degrades to ARM/x86 execution.
		rt.res.FPGAFallbacks += rt.kill(len(p.Cluster.Nodes)+dev, nil)
	case faults.FPGAUp:
		if !p.cardDown[dev] {
			return
		}
		// The card reloads its last configuration from flash, so
		// HasKernel answers as before the failure; only the fleet
		// availability bit flips back.
		p.cardDown[dev] = false
		rt.res.DeviceDownSeconds += (now - rt.devDownSince[dev]).Seconds()
	case faults.LinkDegrade:
		p.slowed[pair] = ev.Factor
	case faults.LinkPartition:
		if p.cut[pair] {
			return
		}
		p.cut[pair] = true
		// Transfers crossing the pair die on both endpoints.
		crossing := func(t *segToken) bool { return t.other >= 0 && pairOf(t.reg, t.other) == pair }
		rt.kill(pair.lo, crossing)
		rt.kill(pair.hi, crossing)
	case faults.LinkRestore:
		delete(p.slowed, pair)
		delete(p.cut, pair)
	}
}

// --- token registry -------------------------------------------------

// track registers a new segment of request l on registry reg — a node,
// or len(nodes)+card for an FPGA invocation; other is a transfer's far
// endpoint, -1 otherwise — and returns its token. It returns nil, and
// registers nothing, when the platform has no fault runtime or the
// work belongs to no launch.
func (p *Platform) track(l *launch, reg, other int) *segToken {
	if p.faults == nil || l == nil {
		return nil
	}
	rt := p.faults
	var tok *segToken
	if n := len(rt.free); n > 0 {
		tok = rt.free[n-1]
		rt.free[n-1] = nil
		rt.free = rt.free[:n-1]
	} else {
		tok = &segToken{}
		tok.fireFn = tok.fire
	}
	tok.l, tok.reg, tok.other, tok.slot, tok.dead = l, reg, other, len(rt.tokens[reg]), false
	rt.tokens[reg] = append(rt.tokens[reg], tok)
	l.tokens = append(l.tokens, tok)
	return tok
}

// submit runs one segment of work on a node's run queue or a link as a
// pooled job. Tracked (tok non-nil), the job is cancellable and its
// token settles before done runs.
func submit(tok *segToken, ps *simtime.PSServer, work time.Duration, done func()) {
	if tok == nil {
		ps.SubmitTransient(work, done)
		return
	}
	tok.next = done
	tok.job = ps.SubmitTransient(work, tok.fireFn)
}

// fire completes a tracked job: unless a fault killed the segment
// first, the token settles and the chain continues.
func (t *segToken) fire() {
	next := t.next
	if t.settle() {
		next()
	}
}

// settle retires a token whose segment completed and reports whether
// the request's chain continues: false when a fault killed the segment
// first, which abandoned the chain. It is the holder's last use of the
// token: a settled token leaves its registry and its launch — the
// launch keeping the order of the rest, because disrupt cancels them
// in that order and each cancel draws a sequence number — and goes
// back to the runtime's pool.
func (t *segToken) settle() bool {
	if t.dead {
		return false
	}
	t.dead = true
	rt := t.l.p.faults
	s := rt.tokens[t.reg]
	i, last := t.slot, len(s)-1
	s[i] = s[last]
	s[i].slot = i
	s[last] = nil
	rt.tokens[t.reg] = s[:last]
	l := t.l
	i = slices.Index(l.tokens, t)
	l.tokens = slices.Delete(l.tokens, i, i+1)
	t.l, t.job, t.next = nil, nil, nil
	rt.free = append(rt.free, t)
	return true
}

// kill disrupts the request of every live segment in registry reg
// that hit accepts (nil accepts all), then drops the dead tokens. It
// returns the number of segments killed. Iteration is in slot order,
// which is deterministic — the whole simulation is single-threaded.
func (rt *faultRuntime) kill(reg int, hit func(*segToken) bool) int {
	killed := 0
	s := rt.tokens[reg]
	for _, t := range s {
		if t.dead || (hit != nil && !hit(t)) {
			continue
		}
		rt.disrupt(t.l)
		killed++
	}
	live := s[:0]
	for _, t := range s {
		if !t.dead {
			t.slot = len(live)
			live = append(live, t)
		}
	}
	clear(s[len(live):])
	rt.tokens[reg] = live
	return killed
}

// disrupt handles one request losing its substrate: every live segment
// of the request is cancelled (a request can hold several — an ARM
// kernel and its DSM transfer run concurrently), then a single retry
// is scheduled with exponential backoff, re-entering the request's
// current phase on a freshly chosen entry node. Beyond the retry
// budget the request is lost.
func (rt *faultRuntime) disrupt(l *launch) {
	for _, t := range l.tokens {
		t.dead = true
		if t.job != nil {
			t.job.Cancel()
			t.job = nil
		}
	}
	l.tokens = l.tokens[:0]
	if l.disruptedAt < 0 {
		l.disruptedAt = rt.p.Sim.Now()
		rt.res.RequestsDisrupted++
	}
	l.attempts++
	if l.attempts > rt.maxRetries {
		rt.res.RequestsLost++
		rt.res.RetriesExhausted++
		return
	}
	rt.res.RequestsRetried++
	// Exponential backoff, base << (attempt-1), capped at
	// maxRetryBackoff. The budget clamp (faults.MaxRetryCap) keeps the
	// shift far from the 63-bit overflow that would wrap the delay to
	// zero and turn a full-outage window into a same-instant retry
	// storm; the absolute cap bounds the wait of late attempts.
	delay := rt.backoff << uint(l.attempts-1)
	if delay <= 0 || delay > maxRetryBackoff {
		delay = maxRetryBackoff
	}
	rt.p.Sim.After(delay, l.retryFn)
}

// finalize closes the books at the horizon and returns the report: a
// copy, so a result that outlives the cell does not keep the runtime —
// and through it the whole platform — reachable. The per-application
// p99s come from the timeline's latency record, by name. Exact-mode
// runs hand their recovery and per-application distributions to the
// test sink under the cell's name.
func (rt *faultRuntime) finalize(cell string, offered, completed int, lat *timelineLat) *FaultResult {
	for i, off := range rt.p.off {
		if off&offCrashed != 0 {
			rt.res.NodeDownSeconds += (rt.horizon - rt.downSince[i]).Seconds()
		}
	}
	for i, down := range rt.p.cardDown {
		if down {
			rt.res.DeviceDownSeconds += (rt.horizon - rt.devDownSince[i]).Seconds()
		}
	}
	if offered > 0 {
		rt.res.Availability = float64(completed) / float64(offered)
	}
	rt.recovery.sink(cell, "recovery")
	rt.res.RecoveryP50 = rt.recovery.percentile(50)
	rt.res.RecoveryP99 = rt.recovery.percentile(99)
	for a, lats := range lat.apps {
		if lats.count() == 0 {
			continue // never completed: no tail to report
		}
		if rt.res.ClassP99 == nil {
			rt.res.ClassP99 = make(map[string]time.Duration)
		}
		app := lat.appNames[a]
		lats.sink(cell, "class:"+app)
		rt.res.ClassP99[app] = lats.percentile(99)
	}
	res := rt.res
	return &res
}

// linkWork applies the a-b pair's degradation factor, if any, to an
// uncontended transfer time, saturating at the largest Duration: a
// transfer stretched past it never completes instead of wrapping
// negative.
func (p *Platform) linkWork(a, b *cluster.Node, base time.Duration) time.Duration {
	if len(p.slowed) > 0 {
		if f, ok := p.slowed[pairOf(a.Index, b.Index)]; ok && f > 1 {
			if w := float64(base) * f; w < math.MaxInt64 {
				return time.Duration(w)
			}
			return math.MaxInt64
		}
	}
	return base
}

// faultMetrics folds the fault report into a serving cell's flat
// metrics map (fault-free cells add nothing, keeping goldens
// byte-identical).
func faultMetrics(m map[string]float64, f *FaultResult) {
	if f == nil {
		return
	}
	m["fault_events"] = float64(f.Events)
	m["requests_lost"] = float64(f.RequestsLost)
	if f.RetriesExhausted > 0 {
		m["retries_exhausted"] = float64(f.RetriesExhausted)
	}
	m["requests_retried"] = float64(f.RequestsRetried)
	m["requests_disrupted"] = float64(f.RequestsDisrupted)
	m["fpga_fallbacks"] = float64(f.FPGAFallbacks)
	m["availability"] = f.Availability
	m["recovery_time_p50_ms"] = msFloat(f.RecoveryP50)
	m["recovery_time_p99_ms"] = msFloat(f.RecoveryP99)
	m["node_down_seconds"] = f.NodeDownSeconds
	m["device_down_seconds"] = f.DeviceDownSeconds
	for app, p99 := range f.ClassP99 {
		m["p99_under_churn_ms_"+app] = msFloat(p99)
	}
}
