package simtime

import (
	"fmt"
	"time"
)

// Chain is a FIFO stream of future events whose firing times never
// decrease, such as a compute unit's completions or a fault timeline.
// Only the chain's head waits in the event heap; the events behind it
// wait in the chain, each under the (time, seq) key it reserved when
// appended. When the head fires, the next event enters the heap under
// its own reserved key, so the firing order, the clock and the event
// counts are exactly those of one At per append (DESIGN.md §7), while
// a backlog of n events costs the heap one entry instead of n.
//
// Chains hand out no handles: their events cannot be cancelled.
type Chain struct {
	sim *Simulator
	// items are the chain's pending events from head on: items[head]
	// is the one in the heap, the rest queue behind it. A drained
	// chain resets items to empty.
	items []chainItem
	head  int
	// fireFn is fire bound once, the callback of every head event.
	fireFn func()
}

// chainItem is one chained event under its reserved key.
type chainItem struct {
	when time.Duration
	seq  uint64
	fn   func()
}

// NewChain returns an empty chain on the simulator.
func (s *Simulator) NewChain() *Chain {
	c := &Chain{sim: s}
	c.fireFn = c.fire
	return c
}

// At appends fn to run at absolute virtual time t, drawing its
// sequence number now, as Simulator.At would. An append at the current
// instant goes to the now lane through Simulator.At; an append earlier
// than the chain's last pending event breaks its FIFO order and
// panics, like scheduling in the past.
func (c *Chain) At(t time.Duration, fn func()) {
	s := c.sim
	if n := len(c.items); n > 0 && t < c.items[n-1].when {
		panic(fmt.Sprintf("simtime: chain append at %v before its tail %v", t, c.items[n-1].when))
	}
	if t <= s.now {
		// Simulator.At panics for t < now.
		s.At(t, fn)
		return
	}
	it := chainItem{when: t, seq: s.nextSeq, fn: fn}
	s.nextSeq++
	if len(c.items) == 0 {
		c.items = append(c.items, it)
		s.queue.push(s.event(t, it.seq, c.fireFn))
		return
	}
	if c.head > 0 && len(c.items) == cap(c.items) {
		// Slide the pending events down instead of growing: a chain
		// that never drains keeps a slice the size of its backlog.
		n := copy(c.items, c.items[c.head:])
		clear(c.items[n:])
		c.items, c.head = c.items[:n], 0
	}
	c.items = append(c.items, it)
	s.chained++
}

// fire runs the head's callback after moving the next event, if any,
// into the heap under its reserved key. That key follows the head's,
// so no event can fire between the two that would not have with one
// At per append.
func (c *Chain) fire() {
	fn := c.items[c.head].fn
	c.items[c.head].fn = nil
	c.head++
	if c.head < len(c.items) {
		next := c.items[c.head]
		c.sim.chained--
		c.sim.queue.push(c.sim.event(next.when, next.seq, c.fireFn))
	} else {
		c.items, c.head = c.items[:0], 0
	}
	fn()
}
