package simtime

import (
	"fmt"
	"math"
	"time"
)

// psEpsilon is the residual work (in seconds) below which a job is
// considered complete. Completion events are scheduled from float
// arithmetic, so sub-nanosecond residues are expected.
const psEpsilon = 1e-10

// PSServer is a processor-sharing service center: capacity C units of
// service rate shared equally among the active jobs. With n active jobs
// each job progresses at rate min(1, C/n).
//
// It models both multi-core CPUs running compute-bound processes
// (capacity = core count; a job's work is its exclusive single-core
// runtime) and shared interconnects (capacity 1; a job's work is
// bytes/bandwidth). This matches how the paper measures load: the x86
// CPU load is simply the number of resident compute processes.
//
// The implementation is the classic virtual-time formulation: instead
// of decrementing every resident job's remaining work on every event
// (O(n) per event — quadratic over a saturation ramp, exactly the
// regime cluster-scale serving campaigns drive), the server tracks one
// cumulative per-job progress function V(t) that grows at the shared
// rate. A job submitted with work w when the accumulator reads V₀ is
// done when V reaches V₀ + w, so accruing progress costs O(1) under
// saturation and the next completion pops off an indexed
// (finishV, seq) min-heap in O(log n). While the server runs under
// capacity, advance additionally keeps every resident job's explicit
// remaining-work chain — a walk bounded by the capacity constant, not
// the population — which reproduces the pre-virtual-time reference
// arithmetic bit for bit in the regime where completion times land on
// exact nanosecond boundaries and a single ulp would flip the
// ceil-to-nanosecond event schedule (see DESIGN.md §7 for the
// determinism argument). LegacyPSServer retains the direct per-job
// formulation as the differential-test reference.
type PSServer struct {
	sim      *Simulator
	capacity float64
	// virt is V(t): the per-job service each always-resident job would
	// have accumulated since the server was created.
	virt   float64
	lastAt time.Duration
	heap   jobHeap
	// next is the pending completion event; cancelling a fired or
	// zero-value ref is a no-op, so no validity flag is needed.
	next    EventRef
	nextSeq uint64
	// jobSeconds integrates Active() over virtual time; dividing by an
	// observation window yields the mean multiprogramming level (the
	// occupancy metric serving campaigns report per node).
	jobSeconds float64
	// completeFn is completeDue bound once, so rescheduling the
	// completion event does not allocate a method closure per event.
	// Recycled transient jobs and completeDue's batch buffer live on
	// the simulator (Simulator.jobFree, jobBatch), shared by its
	// servers.
	completeFn func()
	// onActive observes every change of Active() (see OnActive).
	onActive func(delta int)
}

// PSJob is one unit of work inside a PSServer.
type PSJob struct {
	server *PSServer
	seq    uint64
	// finishV is the virtual progress at which the job's work drains —
	// the static heap key deciding completion order.
	finishV float64
	// chainRem and chainV carry the job's remaining work the way the
	// reference implementation does: chainRem is the residual work as
	// of accumulator value chainV. While the server runs under
	// capacity (shared rate exactly 1) advance subtracts each quantum
	// from chainRem directly — bit-for-bit the legacy per-job chain.
	// Across saturated phases the chain is left behind and the
	// residual is the fold chainRem - (virt - chainV); see
	// remainingNow.
	chainRem float64
	chainV   float64
	done     func()
	finished bool
	index    int // heap index, -1 once removed
	// transient marks a pooled job (SubmitTransient): once it leaves
	// service — its done callback returned, or it was cancelled — the
	// struct goes back to the simulator's free list. Submit's jobs are
	// never recycled: a caller may hold the pointer forever (Remaining
	// stays meaningful after completion).
	transient bool
	// frozen is the remaining work (seconds) captured when the job
	// left the server, so Remaining stays meaningful afterwards.
	frozen float64
}

// NewPSServer returns a processor-sharing server with the given
// capacity (number of rate units, e.g. CPU cores).
func NewPSServer(sim *Simulator, capacity float64) *PSServer {
	if capacity <= 0 {
		panic(fmt.Sprintf("simtime: non-positive PSServer capacity %v", capacity))
	}
	p := &PSServer{
		sim:      sim,
		capacity: capacity,
		lastAt:   sim.Now(),
	}
	p.completeFn = p.completeDue
	return p
}

// Active reports the number of jobs currently in service.
func (p *PSServer) Active() int { return p.heap.len() }

// OnActive registers fn to observe the active-job count: it is called
// with +1 after a job enters service and -1 after one leaves it, by
// completion or Cancel, so an external index can mirror Active()
// without polling. A server has one observer; nil removes it.
func (p *PSServer) OnActive(fn func(delta int)) { p.onActive = fn }

// Capacity reports the configured service capacity.
func (p *PSServer) Capacity() float64 { return p.capacity }

// JobSeconds reports the time integral of the active-job count up to
// the current virtual time (process-seconds of residency). Dividing by
// an observation window gives the mean load over that window.
func (p *PSServer) JobSeconds() float64 {
	p.advance()
	return p.jobSeconds
}

// rate is the per-job progress rate with n active jobs.
func (p *PSServer) rate() float64 {
	n := float64(p.heap.len())
	if n == 0 {
		return 0
	}
	if n <= p.capacity {
		return 1
	}
	return p.capacity / n
}

// Submit adds a job with the given exclusive-rate work; done fires when
// the job completes. It returns the job handle, usable for Cancel.
func (p *PSServer) Submit(work time.Duration, done func()) *PSJob {
	return p.submit(work, done, false)
}

// SubmitTransient adds a job like Submit, but the server recycles its
// struct as soon as the job leaves service: after the completion
// callback returns, or at Cancel. The returned handle is valid until
// then — the caller may Cancel the pending job, and must not touch the
// handle once done has returned or the job was cancelled. Arrival-heavy
// simulations route their work (the overwhelming majority of
// submissions) through here, cancellable or fire-and-forget, so
// steady-state service costs no per-job allocation.
func (p *PSServer) SubmitTransient(work time.Duration, done func()) *PSJob {
	return p.submit(work, done, true)
}

func (p *PSServer) submit(work time.Duration, done func(), transient bool) *PSJob {
	if work < 0 {
		work = 0
	}
	p.advance()
	if p.heap.len() == 0 {
		// Fresh busy period: rebase the accumulator so its magnitude —
		// and with it the cancellation error of finishV - virt — stays
		// bounded by the busy period instead of the whole horizon.
		p.virt = 0
	}
	w := work.Seconds()
	var j *PSJob
	if free := p.sim.jobFree; len(free) > 0 {
		n := len(free) - 1
		j = free[n]
		free[n] = nil
		p.sim.jobFree = free[:n]
		*j = PSJob{server: p}
	} else {
		j = &PSJob{server: p}
	}
	j.seq = p.nextSeq
	j.finishV = p.virt + w
	j.chainRem = w
	j.chainV = p.virt
	j.done = done
	j.index = -1
	j.transient = transient
	p.nextSeq++
	p.heap.push(j)
	if p.onActive != nil {
		p.onActive(1)
	}
	p.reschedule()
	return j
}

// Cancel removes the job without running its completion callback. A
// job SubmitTransient issued goes back to the simulator's free list.
func (j *PSJob) Cancel() {
	if j.finished {
		return
	}
	p := j.server
	p.advance()
	j.finished = true
	j.frozen = j.remainingNow()
	p.heap.removeAt(j.index)
	if p.onActive != nil {
		p.onActive(-1)
	}
	p.reschedule()
	if j.transient {
		j.done = nil
		p.sim.jobFree = append(p.sim.jobFree, j)
	}
}

// remainingNow is the job's residual work against the current
// accumulator, clamped at zero (the completion event's nanosecond
// rounding can overshoot by a hair). A chain kept in sync by
// under-capacity advances is returned as-is — bit-for-bit what the
// reference implementation computes. Progress accrued across
// saturated phases is folded as chainRem - (virt - chainV), NOT as
// finishV - virt: subtracting the accrued progress from the job's own
// residual rounds at the residual's magnitude — where the
// reference's chain also rounds — while finishV - virt would cancel
// at the accumulator's larger magnitude and drift ulps away, enough
// to flip the ceil-to-nanosecond of a scheduled completion.
func (j *PSJob) remainingNow() float64 {
	rem := j.chainRem
	if v := j.server.virt; j.chainV != v {
		rem -= v - j.chainV
	}
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Remaining reports the exclusive-rate work left for the job.
func (j *PSJob) Remaining() time.Duration {
	j.server.advance()
	rem := j.frozen
	if !j.finished {
		rem = j.remainingNow()
	}
	return time.Duration(rem * float64(time.Second))
}

// advance accrues shared progress since the last event. Under
// capacity (shared rate exactly 1 — the light-load regime, bounded by
// the machine's core count) every resident job's chain is updated
// directly, reproducing the reference implementation's arithmetic bit
// for bit at a per-event cost capped by the capacity constant. Over
// capacity — the saturation regime where a per-job walk would turn
// the simulation quadratic — only the O(1) accumulator moves and jobs
// fold the delta lazily on read.
func (p *PSServer) advance() {
	now := p.sim.Now()
	if now == p.lastAt {
		// No time has passed since the last event: nothing accrues.
		return
	}
	elapsed := (now - p.lastAt).Seconds()
	p.lastAt = now
	n := p.heap.len()
	if elapsed <= 0 || n == 0 {
		return
	}
	p.jobSeconds += elapsed * float64(n)
	progress := elapsed * p.rate()
	newVirt := p.virt + progress
	if float64(n) <= p.capacity {
		for _, j := range p.heap.items {
			if j.chainV != p.virt {
				// The job lived through a saturated phase: fold that
				// progress before continuing its exact chain.
				j.chainRem -= p.virt - j.chainV
			}
			j.chainRem -= progress
			if j.chainRem < 0 {
				j.chainRem = 0
			}
			j.chainV = newVirt
		}
	}
	p.virt = newVirt
}

// reschedule computes the next completion and schedules it, moving the
// pending completion event in place when one exists (identical
// ordering to cancel-and-reschedule, half the heap traffic). A
// completion beyond the clock's range is scheduled at its end, where no
// horizon reaches it, instead of wrapping into the past.
func (p *PSServer) reschedule() {
	if p.heap.len() == 0 {
		p.next.Cancel()
		return
	}
	soonest := p.heap.min().remainingNow()
	waitSec := soonest / p.rate()
	wait := math.Ceil(waitSec * float64(time.Second))
	now := p.sim.Now()
	at := time.Duration(math.MaxInt64)
	if wait < float64(math.MaxInt64-now) {
		at = now + time.Duration(wait)
	}
	if ref, ok := p.sim.Retarget(p.next, at, p.completeFn); ok {
		p.next = ref
		return
	}
	p.next = p.sim.At(at, p.completeFn)
}

// completeDue finishes every job whose work has drained, then
// reschedules. Multiple jobs may complete at the same instant; their
// callbacks run in submission (seq) order, exactly as the legacy
// full-scan server ordered them.
func (p *PSServer) completeDue() {
	p.advance()
	sim := p.sim
	finished := sim.jobBatch[:0]
	sim.jobBatch = nil // reentrancy guard: a callback may complete a batch itself
	for p.heap.len() > 0 {
		top := p.heap.min()
		if top.remainingNow() > psEpsilon {
			break
		}
		p.heap.popMin()
		if p.onActive != nil {
			p.onActive(-1)
		}
		top.finished = true
		top.frozen = top.remainingNow()
		finished = append(finished, top)
	}
	// The heap yields the batch in (finishV, seq) order; callbacks must
	// run in pure seq order. Batches are tiny, so an insertion sort
	// reorders them without allocating.
	for i := 1; i < len(finished); i++ {
		j := finished[i]
		k := i - 1
		for k >= 0 && finished[k].seq > j.seq {
			finished[k+1] = finished[k]
			k--
		}
		finished[k+1] = j
	}
	p.reschedule()
	for _, j := range finished {
		if j.done != nil {
			j.done()
		}
	}
	for i, j := range finished {
		// A transient job's handle expires when its done returns, so
		// once the batch's callbacks have run their structs are free to
		// serve the next submissions.
		if j.transient {
			j.done = nil
			sim.jobFree = append(sim.jobFree, j)
		}
		finished[i] = nil
	}
	sim.jobBatch = finished[:0]
}
