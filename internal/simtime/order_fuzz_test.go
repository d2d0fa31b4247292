package simtime

import (
	"slices"
	"sort"
	"testing"
	"time"
)

// orderEngine is the scheduling surface FuzzEventOrder drives: the
// Simulator, or refOrder, the one-sorted-slice reference. Handles are
// numbered in creation order, so the two engines hand out the same
// numbers for as long as they agree.
type orderEngine interface {
	now() time.Duration
	at(t time.Duration, fn func()) int
	cancel(h int)
	retarget(h int, t time.Duration, fn func()) (int, bool)
	feed(pull func() (time.Duration, func(), bool))
	chain(c int, t time.Duration, fn func())
	step() bool
	stepUntil(t time.Duration) bool
	runUntil(t time.Duration)
	pending() int
}

// simOrder adapts the Simulator.
type simOrder struct {
	s      *Simulator
	refs   []EventRef
	chains [2]*Chain
}

func (e *simOrder) now() time.Duration { return e.s.Now() }

func (e *simOrder) at(t time.Duration, fn func()) int {
	e.refs = append(e.refs, e.s.At(t, fn))
	return len(e.refs) - 1
}

func (e *simOrder) cancel(h int) { e.refs[h].Cancel() }

func (e *simOrder) retarget(h int, t time.Duration, fn func()) (int, bool) {
	ref, ok := e.s.Retarget(e.refs[h], t, fn)
	if !ok {
		return 0, false
	}
	e.refs = append(e.refs, ref)
	return len(e.refs) - 1, true
}

func (e *simOrder) feed(pull func() (time.Duration, func(), bool)) { e.s.Feed(pull) }
func (e *simOrder) step() bool                                     { return e.s.Step() }
func (e *simOrder) stepUntil(t time.Duration) bool                 { return e.s.StepUntil(t) }
func (e *simOrder) runUntil(t time.Duration)                       { e.s.RunUntil(t) }
func (e *simOrder) pending() int                                   { return e.s.Pending() }

func (e *simOrder) chain(c int, t time.Duration, fn func()) {
	if e.chains[c] == nil {
		e.chains[c] = e.s.NewChain()
	}
	e.chains[c].At(t, fn)
}

// refOrder keeps every pending event, Feed instants and chained events
// included, in one slice sorted by (when, seq), drawing sequence
// numbers where the simulator does: at each At, successful Retarget,
// Feed pull and chain append.
type refOrder struct {
	clock   time.Duration
	seq     uint64
	items   []refItem
	handles int
}

// refItem is one pending reference event: h is its handle (-1 for a
// Feed instant or a chained event, which have none) and pull its
// stream, nil otherwise.
type refItem struct {
	when time.Duration
	seq  uint64
	h    int
	fn   func()
	pull func() (time.Duration, func(), bool)
}

func (r *refOrder) now() time.Duration { return r.clock }

func (r *refOrder) insert(it refItem) {
	it.seq = r.seq
	r.seq++
	i := sort.Search(len(r.items), func(i int) bool {
		a := r.items[i]
		return a.when > it.when || a.when == it.when && a.seq > it.seq
	})
	r.items = slices.Insert(r.items, i, it)
}

func (r *refOrder) at(t time.Duration, fn func()) int {
	h := r.handles
	r.handles++
	r.insert(refItem{when: t, h: h, fn: fn})
	return h
}

func (r *refOrder) find(h int) int {
	return slices.IndexFunc(r.items, func(it refItem) bool { return it.h == h })
}

func (r *refOrder) cancel(h int) {
	if i := r.find(h); i >= 0 {
		r.items = slices.Delete(r.items, i, i+1)
	}
}

func (r *refOrder) retarget(h int, t time.Duration, fn func()) (int, bool) {
	if r.find(h) < 0 {
		return 0, false
	}
	r.cancel(h)
	return r.at(t, fn), true
}

func (r *refOrder) feed(pull func() (time.Duration, func(), bool)) {
	if t, fn, ok := pull(); ok {
		r.insert(refItem{when: t, h: -1, fn: fn, pull: pull})
	}
}

// chain treats an append as At: a chain fires its events in the order
// and at the times that one At per append would.
func (r *refOrder) chain(_ int, t time.Duration, fn func()) {
	r.insert(refItem{when: t, h: -1, fn: fn})
}

func (r *refOrder) step() bool {
	if len(r.items) == 0 {
		return false
	}
	it := r.items[0]
	r.items = slices.Delete(r.items, 0, 1)
	r.clock = it.when
	it.fn()
	if it.pull != nil {
		r.feed(it.pull)
	}
	return true
}

func (r *refOrder) stepUntil(t time.Duration) bool {
	if len(r.items) == 0 || r.items[0].when > t {
		return false
	}
	return r.step()
}

func (r *refOrder) runUntil(t time.Duration) {
	for r.stepUntil(t) {
	}
	if t > r.clock {
		r.clock = t
	}
}

func (r *refOrder) pending() int { return len(r.items) }

// orderRun interprets a fuzz input as a program of scheduling
// operations against one engine and logs what the engine does: every
// firing with its clock, every operation's result and the pending
// count after each operation.
type orderRun struct {
	eng     orderEngine
	data    []byte
	pos     int
	ids     int
	handles int
	// tails is the last time appended to each of the two chains.
	tails [2]time.Duration
	log   []orderEntry
}

// orderEntry is one line of an orderRun's log: what happened (fire,
// retarget, step, stepUntil, runUntil or pending) and its values.
type orderEntry struct {
	what string
	a, b int64
}

func (r *orderRun) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *orderRun) record(what string, a, b int64) {
	r.log = append(r.log, orderEntry{what: what, a: a, b: b})
}

// flag encodes a boolean result for the log.
func flag(ok bool) int64 {
	if ok {
		return 1
	}
	return 0
}

// event returns a fresh callback. When it fires it logs its id and the
// clock, then runs up to two operations from inside the callback.
func (r *orderRun) event() func() {
	id := r.ids
	r.ids++
	return func() {
		r.record("fire", int64(id), int64(r.eng.now()))
		for k := r.next() % 3; k > 0 && r.op(false); k-- {
		}
	}
}

// op decodes and runs one operation, reporting false once the input
// is exhausted. Stepping operations run only at top level (top), since
// the simulator does not step reentrantly.
func (r *orderRun) op(top bool) bool {
	if r.pos >= len(r.data) {
		return false
	}
	code, arg := r.next(), r.next()
	now := r.eng.now()
	future := now + 1 + time.Duration(arg%4)
	switch code % 10 {
	case 0: // At the current instant: the now lane.
		r.handles = r.eng.at(now, r.event()) + 1
	case 1: // At a future instant: the heap.
		r.handles = r.eng.at(future, r.event()) + 1
	case 2: // Cancel, live, fired, cancelled or retargeted-away alike.
		if r.handles > 0 {
			r.eng.cancel(int(arg) % r.handles)
		}
	case 3, 4: // Retarget to the current instant or into the future.
		if r.handles > 0 {
			t := now
			if code%10 == 4 {
				t = future
			}
			h, ok := r.eng.retarget(int(arg)%r.handles, t, r.event())
			if ok {
				r.handles = h + 1
			}
			r.record("retarget", flag(ok), 0)
		}
	case 5: // A Feed stream of up to four nondecreasing instants.
		times := make([]time.Duration, 1+arg%4)
		t := now
		for i := range times {
			t += time.Duration(r.next() % 3)
			times[i] = t
		}
		i := 0
		r.eng.feed(func() (time.Duration, func(), bool) {
			if i == len(times) {
				return 0, nil, false
			}
			i++
			return times[i-1], r.event(), true
		})
	case 6:
		if top {
			r.record("step", flag(r.eng.step()), 0)
		}
	case 7:
		if top {
			r.record("stepUntil", flag(r.eng.stepUntil(now+time.Duration(arg%5))), 0)
		}
	case 8:
		if top {
			r.eng.runUntil(now + time.Duration(arg%5))
			r.record("runUntil", int64(r.eng.now()), 0)
		}
	case 9: // Append to one of two chains, at or after its tail and now.
		c := int(arg % 2)
		t := max(now, r.tails[c]) + time.Duration(arg/2%3)
		r.tails[c] = t
		r.eng.chain(c, t, r.event())
	}
	r.record("pending", int64(r.eng.pending()), 0)
	return true
}

// run executes the whole program, then drains the engine.
func (r *orderRun) run() []orderEntry {
	for r.op(true) {
	}
	for r.eng.step() {
		r.record("pending", int64(r.eng.pending()), 0)
	}
	return r.log
}

// FuzzEventOrder is the differential gate of the event core: a random
// program of At (at the current instant and later), Cancel (double and
// stale included), Retarget (from the now lane into the heap and from
// the heap to the current instant), Feed streams, appends to two
// chains at nondecreasing times (the current instant included) and
// Step, StepUntil and RunUntil boundaries, issued at top level and
// from inside callbacks, must fire the same events at the same times
// and report the same Pending after every operation on the simulator
// as on a reference that keeps every pending event in one sorted
// slice, where a chain append is an At.
func FuzzEventOrder(f *testing.F) {
	// Three events at one instant, drained: the now lane's FIFO order.
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	// A Feed instant 1ns ahead, stepped to by StepUntil, then a Feed
	// instant at the current instant racing two now-lane events.
	f.Add([]byte{5, 0, 1, 7, 1, 0, 0, 5, 0, 0, 0, 0, 7, 0})
	// Lane and heap entries with cancels (live, double, stale),
	// retargets lane→heap and heap→now, and nested scheduling.
	f.Add([]byte{1, 2, 0, 0, 0, 1, 4, 1, 3, 0, 2, 2, 2, 2, 6, 0, 2, 1, 0, 5, 3, 1, 2, 0, 8, 4, 2, 5, 7, 3, 0, 1, 1})
	f.Add([]byte{5, 3, 0, 1, 2, 2, 0, 0, 1, 0, 8, 2, 0, 1, 3, 2, 7, 0, 6, 0, 4, 3, 2, 4, 1, 1, 2, 0, 5, 1, 1, 0, 8, 4})
	// Three events chained at one instant 1ns ahead and one 2ns after
	// them, drained: the backlog enters the heap one head at a time.
	f.Add([]byte{9, 2, 9, 0, 9, 0, 9, 4})
	// Both chains appended at the current instant (the now lane) and
	// ahead, beside heap and lane events, stepped onto an instant the
	// chain still holds, with appends from inside callbacks.
	f.Add([]byte{9, 0, 9, 1, 1, 0, 9, 2, 1, 9, 3, 0, 0, 9, 2, 2, 6, 0, 9, 0, 1, 1, 7, 1, 9, 4, 2, 0, 0, 8, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		got := (&orderRun{eng: &simOrder{s: New()}, data: data}).run()
		want := (&orderRun{eng: &refOrder{}, data: data}).run()
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("entry %d: simulator %+v, reference %+v\nsimulator log: %+v", i, got[i], want[i], got[:i+1])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("simulator logged %d entries, reference %d", len(got), len(want))
		}
	})
}
