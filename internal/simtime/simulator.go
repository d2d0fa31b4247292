// Package simtime provides a deterministic discrete-event simulator.
//
// All Xar-Trek evaluation experiments run on a virtual clock so that
// results are bit-identical across runs and independent of host speed.
// The simulator is a classic event-heap design: callbacks are scheduled
// at absolute virtual times and executed in (time, sequence) order.
//
// The engine is allocation-free in steady state: fired or cancelled
// Event structs return to a per-simulator free list and are reissued
// under a new generation, and the pending queue is a concrete indexed
// quad-ary heap of *Event — no container/heap interface boxing, and
// cancellation removes the entry eagerly in O(log n) instead of
// leaving garbage to sift around until its firing time. A
// million-event serving campaign therefore costs no per-event heap
// garbage beyond the closures the caller itself schedules.
package simtime

import (
	"fmt"
	"time"
)

// Event is a scheduled callback, owned and pooled by its simulator.
// User code never holds a *Event directly; At and After hand out
// EventRef handles whose generation check keeps them safe after the
// struct is recycled.
type Event struct {
	sim   *Simulator
	when  time.Duration
	seq   uint64
	gen   uint64
	fn    func()
	index int // heap position, -1 while recycled
}

// EventRef is a cancellable handle to a scheduled event. It is a plain
// value — handing one out allocates nothing — and it stays valid
// forever: once the event fires or is cancelled the underlying struct
// is recycled under a bumped generation, turning any further Cancel
// through an old handle into a no-op.
type EventRef struct {
	ev   *Event
	gen  uint64
	when time.Duration
}

// When reports the virtual time at which the event fires (or fired).
func (r EventRef) When() time.Duration { return r.when }

// Cancel prevents the event's callback from running, removing it from
// the pending queue immediately. Cancelling an already-fired or
// already-cancelled event is a no-op, so double cancellation cannot
// corrupt the pending-event count.
func (r EventRef) Cancel() {
	e := r.ev
	if e == nil || e.gen != r.gen {
		return
	}
	s := e.sim
	s.queue.removeAt(e.index)
	s.recycle(e)
}

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is not usable; call New.
type Simulator struct {
	now     time.Duration
	queue   eventHeap
	nextSeq uint64
	// free holds recycled Event structs for reuse by At.
	free []*Event
}

// New returns a simulator with the clock at zero and no pending events.
func New() *Simulator {
	return &Simulator{}
}

// Now reports the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is an error the simulator surfaces by panicking, because it is
// always a programming bug in a deterministic simulation.
func (s *Simulator) At(t time.Duration, fn func()) EventRef {
	if t < s.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", t, s.now))
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{sim: s}
	}
	e.when = t
	e.seq = s.nextSeq
	e.fn = fn
	s.nextSeq++
	s.queue.push(e)
	return EventRef{ev: e, gen: e.gen, when: t}
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d time.Duration, fn func()) EventRef {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Retarget moves a still-pending event to fire fn at time t instead,
// returning the replacement handle. It is observationally identical to
// r.Cancel() followed by At(t, fn) — the event takes a fresh sequence
// number, so (time, seq) ordering and every tie-break come out exactly
// as the cancel-and-reschedule pair would — but the queue entry is
// re-keyed in place: one sift instead of a remove, a free-list round
// trip and a push. Completion-driven service centers retarget their
// one pending event on every submit and drain, which makes this the
// queue's hottest write path. ok=false means the handle was stale
// (already fired or cancelled) and nothing was scheduled; the caller
// falls back to At.
func (s *Simulator) Retarget(r EventRef, t time.Duration, fn func()) (EventRef, bool) {
	e := r.ev
	if e == nil || e.gen != r.gen {
		return EventRef{}, false
	}
	if t < s.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", t, s.now))
	}
	// Bump the generation first: the returned handle supersedes r, and
	// any copy of r held elsewhere must go stale now.
	e.gen++
	e.when = t
	e.seq = s.nextSeq
	e.fn = fn
	s.nextSeq++
	s.queue.fix(e.index)
	return EventRef{ev: e, gen: e.gen, when: t}, true
}

// recycle returns a dequeued event to the free list. Bumping the
// generation invalidates every outstanding EventRef to it before the
// struct can be reissued.
func (s *Simulator) recycle(e *Event) {
	e.gen++
	e.fn = nil
	s.free = append(s.free, e)
}

// Step runs the single earliest pending event. It reports false when
// the queue is empty.
func (s *Simulator) Step() bool {
	if s.queue.len() == 0 {
		return false
	}
	e := s.queue.popMin()
	s.now = e.when
	fn := e.fn
	// Recycle before running: a Cancel from inside fn (or on any
	// handle kept around) sees a stale generation and no-ops.
	s.recycle(e)
	fn()
	return true
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// StepUntil runs the earliest pending event if it fires at or before
// t, reporting whether one ran.
func (s *Simulator) StepUntil(t time.Duration) bool {
	if s.queue.len() == 0 || s.queue.min().when > t {
		return false
	}
	return s.Step()
}

// RunUntil executes events with firing time <= t, then advances the
// clock to t.
func (s *Simulator) RunUntil(t time.Duration) {
	for s.StepUntil(t) {
	}
	if t > s.now {
		s.now = t
	}
}

// Pending reports the number of scheduled events. It is O(1): a
// cancelled event leaves the queue at cancellation time.
func (s *Simulator) Pending() int { return s.queue.len() }
