package simtime

import (
	"testing"
	"time"
)

// TestChainKeepsOneHeapEntry appends a backlog to a chain and checks
// that only its head waits in the heap, that Pending counts the rest,
// and that the backlog fires in order with one heap pop per event, as
// one At per append would.
func TestChainKeepsOneHeapEntry(t *testing.T) {
	s := New()
	c := s.NewChain()
	const n = 100
	var fired []time.Duration
	for i := 1; i <= n; i++ {
		c.At(time.Duration(i/2+1), func() { fired = append(fired, s.Now()) })
	}
	if got := s.Pending(); got != n {
		t.Fatalf("Pending = %d, want %d", got, n)
	}
	s.Run()
	if got := s.HeapPeak(); got != 1 {
		t.Fatalf("HeapPeak = %d, want 1", got)
	}
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i, at := range fired {
		if want := time.Duration((i+1)/2 + 1); at != want {
			t.Fatalf("event %d fired at %v, want %v", i, at, want)
		}
	}
	if stepped, heapPops := s.EventCounts(); stepped != n || heapPops != n {
		t.Fatalf("EventCounts = %d stepped, %d heap pops; want %d and %d", stepped, heapPops, n, n)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
}

// TestChainAppendOutOfOrderPanics checks that an append earlier than
// the chain's last pending event, or earlier than the clock, panics as
// scheduling in the past does, while appends at the tail's instant or
// at the current instant are accepted.
func TestChainAppendOutOfOrderPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		queued []time.Duration // appended at time zero
		steps  int             // events stepped before the append
		runTo  time.Duration   // then RunUntil this time
		at     time.Duration
		panics bool
	}{
		{"before-tail", []time.Duration{5, 10}, 0, 0, 7, true},
		{"before-head", []time.Duration{5}, 0, 0, 3, true},
		{"now-before-tail", []time.Duration{5, 10}, 0, 5, 5, true},
		{"before-now", nil, 0, 10, 9, true},
		{"before-now-drained", []time.Duration{5}, 0, 10, 7, true},
		{"at-tail", []time.Duration{5, 10}, 0, 0, 10, false},
		{"now-at-tail", []time.Duration{5, 5}, 1, 0, 5, false},
		{"now-drained", []time.Duration{5}, 0, 10, 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			c := s.NewChain()
			for _, at := range tc.queued {
				c.At(at, func() {})
			}
			for i := 0; i < tc.steps; i++ {
				s.Step()
			}
			s.RunUntil(tc.runTo)
			defer func() {
				if got := recover() != nil; got != tc.panics {
					t.Fatalf("append at %v after %v with clock %v: panicked = %v, want %v", tc.at, tc.queued, s.Now(), got, tc.panics)
				}
			}()
			c.At(tc.at, func() {})
		})
	}
}

// TestChainBacklogStaysBounded keeps a chain from ever draining, each
// firing appending the next event behind a backlog of four, and checks
// that the events fire in order and that the chain's storage stays the
// size of its backlog instead of growing with every append.
func TestChainBacklogStaysBounded(t *testing.T) {
	s := New()
	c := s.NewChain()
	const backlog, total = 4, 1000
	appended, fired := 0, 0
	var next func()
	next = func() {
		if want := time.Duration(fired + 1); s.Now() != want {
			t.Fatalf("event %d fired at %v, want %v", fired, s.Now(), want)
		}
		fired++
		if appended < total {
			appended++
			c.At(time.Duration(appended), next)
		}
	}
	for appended < backlog {
		appended++
		c.At(time.Duration(appended), next)
	}
	s.Run()
	if fired != total {
		t.Fatalf("fired %d events, want %d", fired, total)
	}
	if got := cap(c.items); got > 2*backlog {
		t.Fatalf("chain storage grew to %d items for a backlog of %d", got, backlog)
	}
}
