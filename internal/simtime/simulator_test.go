package simtime

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSimulatorOrdersEventsByTime(t *testing.T) {
	s := New()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSimulatorTieBreaksBySchedulingOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestSimulatorCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(time.Second, func() { fired = true })
	e.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSimulatorAfterRelativeToNow(t *testing.T) {
	s := New()
	var at time.Duration
	s.At(5*time.Second, func() {
		s.After(2*time.Second, func() { at = s.Now() })
	})
	s.Run()
	if at != 7*time.Second {
		t.Fatalf("nested After fired at %v, want 7s", at)
	}
}

func TestSimulatorRunUntilAdvancesClock(t *testing.T) {
	s := New()
	ran := false
	s.At(time.Second, func() { ran = true })
	s.At(time.Minute, func() { t.Error("future event ran") })
	s.RunUntil(10 * time.Second)
	if !ran {
		t.Fatal("due event did not run")
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", s.Now())
	}
}

func TestSimulatorSchedulePastPanics(t *testing.T) {
	s := New()
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(0, func() {})
}

func TestPSServerSingleJobRunsAtFullRate(t *testing.T) {
	s := New()
	p := NewPSServer(s, 6)
	var end time.Duration
	p.Submit(3*time.Second, func() { end = s.Now() })
	s.Run()
	if end != 3*time.Second {
		t.Fatalf("single job finished at %v, want 3s", end)
	}
}

func TestPSServerUnderCapacityNoSlowdown(t *testing.T) {
	s := New()
	p := NewPSServer(s, 6)
	ends := make([]time.Duration, 6)
	for i := 0; i < 6; i++ {
		i := i
		p.Submit(2*time.Second, func() { ends[i] = s.Now() })
	}
	s.Run()
	for i, e := range ends {
		if e != 2*time.Second {
			t.Fatalf("job %d finished at %v, want 2s (under capacity)", i, e)
		}
	}
}

func TestPSServerOverCapacitySharing(t *testing.T) {
	// 12 jobs of 1s work on 6 cores: rate 1/2 each, all done at 2s.
	s := New()
	p := NewPSServer(s, 6)
	var ends []time.Duration
	for i := 0; i < 12; i++ {
		p.Submit(time.Second, func() { ends = append(ends, s.Now()) })
	}
	s.Run()
	if len(ends) != 12 {
		t.Fatalf("finished %d jobs, want 12", len(ends))
	}
	for _, e := range ends {
		if d := e - 2*time.Second; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("job finished at %v, want ~2s", e)
		}
	}
}

func TestPSServerLateArrivalSlowsEarlyJob(t *testing.T) {
	// Capacity 1. Job A (2s) starts at 0; job B (1s) arrives at 1s.
	// From t=1 both share: A needs 1s more work at rate 1/2 -> but B
	// finishes first: B has 1s work at 1/2 rate -> B done at t=3, and
	// A progressed 1s more by then -> A done at t=3 too.
	s := New()
	p := NewPSServer(s, 1)
	var endA, endB time.Duration
	p.Submit(2*time.Second, func() { endA = s.Now() })
	s.At(time.Second, func() {
		p.Submit(time.Second, func() { endB = s.Now() })
	})
	s.Run()
	if d := endA - 3*time.Second; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("A finished at %v, want ~3s", endA)
	}
	if d := endB - 3*time.Second; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("B finished at %v, want ~3s", endB)
	}
}

func TestPSServerCancel(t *testing.T) {
	s := New()
	p := NewPSServer(s, 1)
	var endA time.Duration
	p.Submit(2*time.Second, func() { endA = s.Now() })
	j := p.Submit(2*time.Second, func() { t.Error("cancelled job completed") })
	s.At(time.Second, j.Cancel)
	s.Run()
	// A ran at 1/2 rate for 1s (0.5s progress), then alone: total 2.5s.
	if d := endA - 2500*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("A finished at %v, want ~2.5s", endA)
	}
}

func TestPSServerZeroWorkCompletes(t *testing.T) {
	s := New()
	p := NewPSServer(s, 1)
	done := false
	p.Submit(0, func() { done = true })
	s.Run()
	if !done {
		t.Fatal("zero-work job never completed")
	}
}

// TestPSServerConservation property: total service delivered never
// exceeds capacity*elapsed, and every job eventually completes.
func TestPSServerConservation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		cap := float64(1 + rng.Intn(8))
		p := NewPSServer(s, cap)
		n := 1 + rng.Intn(20)
		var totalWork time.Duration
		completed := 0
		var last time.Duration
		for i := 0; i < n; i++ {
			w := time.Duration(1+rng.Intn(5000)) * time.Millisecond
			at := time.Duration(rng.Intn(3000)) * time.Millisecond
			totalWork += w
			s.At(at, func() {
				p.Submit(w, func() {
					completed++
					last = s.Now()
				})
			})
		}
		s.Run()
		if completed != n {
			return false
		}
		// Makespan lower bound: total work / capacity.
		minSpan := time.Duration(float64(totalWork) / cap)
		// Allow 1ms slack for rounding.
		return last+time.Millisecond >= minSpan
	}
	cfg := &quick.Config{MaxCount: 60}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPSServerDeterminism: identical schedules produce identical
// completion sequences.
func TestPSServerDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New()
		p := NewPSServer(s, 3)
		rng := rand.New(rand.NewSource(42))
		var ends []time.Duration
		for i := 0; i < 50; i++ {
			w := time.Duration(1+rng.Intn(900)) * time.Millisecond
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			s.At(at, func() {
				p.Submit(w, func() { ends = append(ends, s.Now()) })
			})
		}
		s.Run()
		return ends
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different completion counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPSServerJobSeconds: the load integral tracks residency exactly
// in the deterministic world.
func TestPSServerJobSeconds(t *testing.T) {
	s := New()
	p := NewPSServer(s, 2)
	if got := p.JobSeconds(); got != 0 {
		t.Fatalf("fresh server integral = %v, want 0", got)
	}
	// Two 1s jobs on 2 cores: both resident for 1s -> 2 job-seconds.
	p.Submit(time.Second, nil)
	p.Submit(time.Second, nil)
	s.Run()
	if got := p.JobSeconds(); got < 1.999 || got > 2.001 {
		t.Fatalf("integral after two parallel jobs = %v, want ~2", got)
	}
	// Four more 1s jobs on 2 cores run at rate 1/2 and take 2s: 8 more
	// job-seconds.
	for i := 0; i < 4; i++ {
		p.Submit(time.Second, nil)
	}
	s.Run()
	if got := p.JobSeconds(); got < 9.999 || got > 10.001 {
		t.Fatalf("integral after saturated batch = %v, want ~10", got)
	}
	// Reading the integral mid-simulation must not disturb job
	// completion times.
	done := time.Duration(0)
	p.Submit(time.Second, func() { done = s.Now() })
	s.At(s.Now()+500*time.Millisecond, func() { _ = p.JobSeconds() })
	s.Run()
	if want := 3*time.Second + time.Second; done != want {
		t.Fatalf("completion at %v, want %v", done, want)
	}
}

func TestSimulatorPendingTracksCancelAndFire(t *testing.T) {
	s := New()
	a := s.At(time.Second, func() {})
	s.At(2*time.Second, func() {})
	s.At(3*time.Second, func() {})
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	a.Cancel()
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after cancel = %d, want 2", got)
	}
	// Double cancel must not decrement twice.
	a.Cancel()
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after double cancel = %d, want 2", got)
	}
	s.Step()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after one fire = %d, want 1", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after drain = %d, want 0", got)
	}
}

// A handle to a fired event must stay inert even after the pooled
// Event struct is reissued to a new schedule.
func TestSimulatorStaleRefCannotCancelRecycledEvent(t *testing.T) {
	s := New()
	first := s.At(time.Second, func() {})
	s.Run()
	fired := false
	second := s.At(2*time.Second, func() { fired = true })
	// The pool reissued the same struct; the stale handle must see the
	// bumped generation and refuse.
	first.Cancel()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after stale cancel = %d, want 1", got)
	}
	s.Run()
	if !fired {
		t.Fatal("stale handle cancelled the recycled event")
	}
	second.Cancel() // post-fire cancel stays a no-op
}

func TestSimulatorCancelInsideOwnCallback(t *testing.T) {
	s := New()
	var self EventRef
	ran := false
	self = s.At(time.Second, func() {
		ran = true
		self.Cancel() // already firing: must be a no-op
	})
	follow := false
	s.At(time.Second, func() { follow = true })
	s.Run()
	if !ran || !follow {
		t.Fatalf("ran=%v follow=%v, want both true", ran, follow)
	}
}

// The scheduling core must not allocate in steady state: events come
// from the pool, the typed heap boxes nothing, and neither the now
// lane nor a Feed slot grows once warm. Each op fires a future event
// from the heap, a zero-delay event from the now lane and one instant
// of an endless Feed stream from its slot.
func TestSimulatorSteadyStateAllocs(t *testing.T) {
	s := New()
	fn := func() {}
	next := time.Duration(0)
	s.Feed(func() (time.Duration, func(), bool) {
		next += time.Microsecond
		return next, fn, true
	})
	ops := 0
	op := func() {
		ops++
		s.After(time.Microsecond, fn)
		s.After(0, fn)
		s.RunUntil(s.Now() + time.Microsecond)
	}
	// Warm the pool.
	for i := 0; i < 16; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
	stepped, heapPops := s.EventCounts()
	if want := uint64(3 * ops); stepped != want || heapPops != uint64(ops) {
		t.Fatalf("EventCounts = %d stepped, %d heap pops; want %d and %d", stepped, heapPops, want, ops)
	}
}

// TestEventHeapOrderFuzz drives the typed quad-ary heap against a
// sorted reference with random schedules and random eager
// cancellations.
func TestEventHeapOrderFuzz(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type rec struct {
			when time.Duration
			seq  int
		}
		var want []rec
		var got []rec
		n := 1 + rng.Intn(300)
		seq := 0
		for i := 0; i < n; i++ {
			when := time.Duration(rng.Intn(1000)) * time.Millisecond
			id := seq
			seq++
			ref := s.At(when, func() { got = append(got, rec{when: when, seq: id}) })
			if rng.Intn(4) == 0 {
				ref.Cancel()
				ref.Cancel()
			} else {
				want = append(want, rec{when: when, seq: id})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].when != want[j].when {
				return want[i].when < want[j].when
			}
			return want[i].seq < want[j].seq
		})
		s.Run()
		if len(got) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestSimulatorRunUntilWithCancelledHead(t *testing.T) {
	s := New()
	head := s.At(time.Second, func() { t.Error("cancelled event ran") })
	ran := false
	s.At(2*time.Second, func() { ran = true })
	head.Cancel()
	s.RunUntil(5 * time.Second)
	if !ran {
		t.Fatal("live event did not run")
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", s.Now())
	}
}
