package simtime

import "time"

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
// per pending event, so the heap holds O(in-flight) entries regardless
// of campaign length, and the arrival schedule itself never needs to
// exist as a slice.
//
// Instants must be nondecreasing (each pull's instant is scheduled
// from the previous one's firing time; going backwards panics via At,
// as any schedule-in-the-past does). All callbacks of one instant must
// be folded into that instant's fn by the generator: Feed deliberately
// fires a whole instant as one event so same-instant work cannot
// interleave with events the callbacks themselves schedule — the
// ordering contract the serving front end's burst spreading relies on
// (DESIGN.md §7).
func (s *Simulator) Feed(pull func() (time.Duration, func(), bool)) {
	// One feeder struct with a pre-bound step carries the stream,
	// instead of a fresh continuation closure per instant: a
	// million-instant stream costs one allocation, not a million.
	f := &feeder{sim: s, pull: pull}
	f.stepFn = f.step
	f.schedule()
}

// feeder is the state of one Feed stream: the generator, the callback
// of the currently pending instant, and the step closure bound once.
type feeder struct {
	sim    *Simulator
	pull   func() (time.Duration, func(), bool)
	fn     func()
	stepFn func()
}

// schedule pulls the next instant and arms its event.
func (f *feeder) schedule() {
	t, fn, ok := f.pull()
	if !ok {
		return
	}
	f.fn = fn
	f.sim.At(t, f.stepFn)
}

// step fires the pending instant and chains the next one.
func (f *feeder) step() {
	fn := f.fn
	f.fn = nil
	fn()
	f.schedule()
}
