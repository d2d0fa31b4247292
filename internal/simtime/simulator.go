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
// leaving garbage to sift around until its firing time. Two heap-free
// lanes sit beside the heap: a FIFO of the events due at the current
// instant and one slot per Feed stream. Each lane is in (time,
// sequence) order by construction, so firing whichever of the heap top
// and the lane heads is least keeps the order exactly that of one heap
// (DESIGN.md §7). A Chain keeps a FIFO stream of future events out of
// the heap but for its head, under the same keys. A million-event
// serving campaign therefore costs no per-event heap garbage beyond the
// closures the caller itself schedules.
package simtime

import (
	"fmt"
	"math"
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
	index int // heap position, or inLane/laneDead in the now lane; stale while recycled
}

// Lane states of Event.index: a live entry of the now lane, and one
// cancelled there, left as a tombstone until the lane pops it.
const (
	inLane   = -2
	laneDead = -3
)

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
	if e.index == inLane {
		// The lane's FIFO position is its order, so the entry stays as
		// a tombstone until it reaches the front or the lane empties.
		e.gen++
		e.fn = nil
		e.index = laneDead
		s.laneLive--
		if s.laneLive == 0 {
			s.dropLane()
		}
		return
	}
	s.queue.removeAt(e.index)
	s.recycle(e)
}

// Simulator owns the virtual clock and the pending events: the heap,
// the now lane and the Feed slots.
// The zero value is not usable; call New.
type Simulator struct {
	now   time.Duration
	queue eventHeap
	// lane is the FIFO of the events scheduled for the current instant
	// (At with t == Now), pending from laneHead on; laneLive counts
	// those not cancelled, and the lane is empty whenever it is zero.
	// Its entries share one firing time and were appended in sequence
	// order, and the clock cannot pass them, so the front is always the
	// lane's least (time, seq).
	lane     []*Event
	laneHead int
	laneLive int
	// feeds holds the Feed streams with an instant pending, each
	// carrying that instant's (time, seq).
	feeds []*feeder
	// chained counts the Chain events queued behind their chains'
	// heads, pending but not yet in the heap.
	chained int
	nextSeq uint64
	// free holds recycled Event structs for reuse by At.
	free []*Event
	// jobFree and jobBatch are the timeline's PS-server pools: the
	// recycled transient jobs every server draws from, and the batch
	// buffer of completeDue (nil while a batch is in progress).
	jobFree  []*PSJob
	jobBatch []*PSJob
	// stepped counts the events fired and heapPops those of them
	// popped from the event heap (EventCounts).
	stepped, heapPops uint64
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
	e := s.event(t, s.nextSeq, fn)
	s.nextSeq++
	if t == s.now {
		e.index = inLane
		s.lane = append(s.lane, e)
		s.laneLive++
	} else {
		s.queue.push(e)
	}
	return EventRef{ev: e, gen: e.gen, when: t}
}

// event takes an Event struct from the free list, or allocates one,
// and keys it (t, seq).
func (s *Simulator) event(t time.Duration, seq uint64, fn func()) *Event {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{sim: s}
	}
	e.when, e.seq, e.fn = t, seq, fn
	return e
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
// as the cancel-and-reschedule pair would — but a heap entry is
// re-keyed in place: one sift instead of a remove, a free-list round
// trip and a push. Completion-driven service centers retarget their
// one pending event on every submit and drain, which makes this the
// queue's hottest write path. A now-lane entry is literally cancelled
// and rescheduled. ok=false means the handle was stale (already fired
// or cancelled) and nothing was scheduled; the caller falls back to At.
func (s *Simulator) Retarget(r EventRef, t time.Duration, fn func()) (EventRef, bool) {
	e := r.ev
	if e == nil || e.gen != r.gen {
		return EventRef{}, false
	}
	if t < s.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", t, s.now))
	}
	if e.index == inLane {
		r.Cancel()
		return s.At(t, fn), true
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

// Sources of the earliest pending event (see step).
const (
	fromNone = iota
	fromHeap
	fromLane
	fromFeed
)

// laneFront returns the now lane's first live event, recycling the
// tombstones ahead of it. The lane must hold a live event.
func (s *Simulator) laneFront() *Event {
	for {
		e := s.lane[s.laneHead]
		if e.index == inLane {
			return e
		}
		s.lane[s.laneHead] = nil
		s.laneHead++
		s.free = append(s.free, e)
	}
}

// dropLane empties a now lane left with no live event, recycling its
// tombstones.
func (s *Simulator) dropLane() {
	rest := s.lane[s.laneHead:]
	s.free = append(s.free, rest...)
	clear(rest)
	s.lane = s.lane[:0]
	s.laneHead = 0
}

// step fires the earliest pending event in (time, seq) order among
// the heap top, the now lane's front and the Feed slots, if it is due
// at or before t, reporting whether one ran.
func (s *Simulator) step(t time.Duration) bool {
	src, slot := fromNone, 0
	var when time.Duration
	var seq uint64
	if s.queue.len() > 0 {
		top := s.queue.min()
		when, seq, src = top.when, top.seq, fromHeap
	}
	if s.laneLive > 0 {
		if e := s.laneFront(); src == fromNone || e.when < when || e.when == when && e.seq < seq {
			when, seq, src = e.when, e.seq, fromLane
		}
	}
	for i, f := range s.feeds {
		if src == fromNone || f.when < when || f.when == when && f.seq < seq {
			when, seq, src, slot = f.when, f.seq, fromFeed, i
		}
	}
	if src == fromNone || when > t {
		return false
	}
	s.stepped++
	switch src {
	case fromHeap:
		s.heapPops++
		s.run(s.queue.popMin())
	case fromLane:
		e := s.lane[s.laneHead]
		s.lane[s.laneHead] = nil
		s.laneHead++
		s.laneLive--
		if s.laneLive == 0 {
			s.dropLane()
		}
		s.run(e)
	case fromFeed:
		f := s.feeds[slot]
		last := len(s.feeds) - 1
		s.feeds[slot] = s.feeds[last]
		s.feeds[last] = nil
		s.feeds = s.feeds[:last]
		s.now = f.when
		f.step()
	}
	return true
}

// run advances the clock to e and runs its callback.
func (s *Simulator) run(e *Event) {
	s.now = e.when
	fn := e.fn
	// Recycle before running: a Cancel from inside fn (or on any
	// handle kept around) sees a stale generation and no-ops.
	s.recycle(e)
	fn()
}

// Step runs the single earliest pending event. It reports false when
// nothing is pending.
func (s *Simulator) Step() bool { return s.step(math.MaxInt64) }

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// StepUntil runs the earliest pending event if it fires at or before
// t, reporting whether one ran.
func (s *Simulator) StepUntil(t time.Duration) bool { return s.step(t) }

// RunUntil executes events with firing time <= t, then advances the
// clock to t.
func (s *Simulator) RunUntil(t time.Duration) {
	for s.StepUntil(t) {
	}
	if t > s.now {
		s.now = t
	}
}

// EventCounts reports the events fired so far and, of those, the ones
// popped from the event heap; the rest came off the now lane or a Feed
// slot. Both are deterministic functions of the schedule, so they gate
// the engine's per-request cost where wall time is too noisy to.
func (s *Simulator) EventCounts() (stepped, heapPops uint64) { return s.stepped, s.heapPops }

// HeapPeak reports the most events the event heap has held at once.
// Events in the now lane, Feed slots and queued behind a Chain's head
// never enter the heap, so it measures what those lanes keep out.
func (s *Simulator) HeapPeak() int { return s.queue.peak }

// Pending reports the number of scheduled events: heap entries, live
// now-lane entries, armed Feed slots and Chain events queued behind
// their heads. It is O(1): a cancelled event stops counting at
// cancellation time.
func (s *Simulator) Pending() int { return s.queue.len() + s.laneLive + len(s.feeds) + s.chained }
