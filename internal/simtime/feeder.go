package simtime

import (
	"fmt"
	"time"
)

// MaxRate is the highest rate, in arrivals per second, a stream fed to
// the simulator may reach. Above it the stream's mean gap falls below
// the clock's 1 ns tick: gaps truncate to zero, the clock stops
// advancing and one instant's batch grows without bound.
const MaxRate = 1e9

// Feed drives a lazily generated event stream into the simulator while
// keeping exactly one of its events pending at a time: pull returns
// the next firing instant and its callback (ok=false ends the stream),
// Feed schedules it, and when it fires the callback runs and the next
// instant is pulled and scheduled.
//
// This is the batch-injection hook the serving campaigns use for
// million-request arrival streams: instead of pre-pushing one event
// per arrival — O(total requests) heap entries and closures before the
// clock even starts — the generator materialises one arrival instant
// at a time, so the pending events stay O(in-flight) regardless of
// campaign length, and the arrival schedule itself never needs to
// exist as a slice. The pending instant never enters the event heap:
// it waits in the stream's own slot, drawing its sequence number as
// At would, and Step compares it with the heap top directly.
//
// Instants must be nondecreasing (each pull's instant is scheduled
// from the previous one's firing time; going backwards panics, as any
// schedule-in-the-past does). All callbacks of one instant must be
// folded into that instant's fn by the generator: Feed deliberately
// fires a whole instant as one event so same-instant work cannot
// interleave with events the callbacks themselves schedule — the
// ordering contract the serving front end's burst spreading relies on
// (DESIGN.md §7).
func (s *Simulator) Feed(pull func() (time.Duration, func(), bool)) {
	// One feeder struct carries the stream, instead of a fresh
	// continuation closure per instant: a million-instant stream costs
	// one allocation, not a million.
	f := &feeder{sim: s, pull: pull}
	f.schedule()
}

// feeder is the state of one Feed stream: the generator and, while an
// instant is pending, its firing time, sequence number and callback.
type feeder struct {
	sim  *Simulator
	pull func() (time.Duration, func(), bool)
	when time.Duration
	seq  uint64
	fn   func()
}

// schedule pulls the next instant and arms the stream's slot.
func (f *feeder) schedule() {
	t, fn, ok := f.pull()
	if !ok {
		return
	}
	s := f.sim
	if t < s.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", t, s.now))
	}
	f.when, f.seq, f.fn = t, s.nextSeq, fn
	s.nextSeq++
	s.feeds = append(s.feeds, f)
}

// step fires the pending instant, whose slot the simulator has already
// released, and chains the next one.
func (f *feeder) step() {
	fn := f.fn
	f.fn = nil
	fn()
	f.schedule()
}
