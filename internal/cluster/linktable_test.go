package cluster

import (
	"math"
	"strings"
	"testing"
	"time"

	"xartrek/internal/popcorn"
	"xartrek/internal/simtime"
)

// TestValidateRejectsDuplicateLinkOverride pins one override per
// unordered pair: with two, NetBetween answered with the first while
// the materialised link used the last.
func TestValidateRejectsDuplicateLinkOverride(t *testing.T) {
	fast := popcorn.NetModel{LatencyRTT: time.Microsecond, BandwidthBps: 10e9}
	slow := popcorn.NetModel{LatencyRTT: time.Millisecond, BandwidthBps: 1e6}
	for _, second := range []LinkSpec{
		{A: "arm-00", B: "x86-00", Net: slow},
		{A: "x86-00", B: "arm-00", Net: slow},
		{A: "x86-00", B: "arm-00", Net: fast},
	} {
		topo := ScaleOutTopology("r", 1, 1, 0)
		topo.Links = []LinkSpec{{A: "x86-00", B: "arm-00", Net: fast}, second}
		err := topo.Validate()
		if err == nil {
			t.Fatalf("second override %s-%s accepted", second.A, second.B)
		}
		for _, name := range []string{"x86-00", "arm-00", "twice"} {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not mention %q", err, name)
			}
		}
		if _, err := FromTopology(simtime.New(), topo); err == nil {
			t.Fatal("FromTopology materialised a doubly overridden pair")
		}
	}
	// Distinct pairs sharing one endpoint stay legal.
	topo := ScaleOutTopology("r", 1, 2, 0)
	topo.Links = []LinkSpec{{A: "x86-00", B: "arm-00", Net: fast}, {A: "arm-01", B: "x86-00", Net: slow}}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPairSlotIsDenseBijection pins the triangular layout: every
// unordered pair of n nodes maps to its own slot in [0, n(n-1)/2), in
// either argument order.
func TestPairSlotIsDenseBijection(t *testing.T) {
	const n = 40
	seen := make([]bool, n*(n-1)/2)
	for hi := 1; hi < n; hi++ {
		for lo := 0; lo < hi; lo++ {
			s := pairSlot(lo, hi)
			if s != pairSlot(hi, lo) {
				t.Fatalf("pairSlot(%d,%d) depends on argument order", lo, hi)
			}
			if s < 0 || s >= len(seen) || seen[s] {
				t.Fatalf("pairSlot(%d,%d) = %d collides or leaves the table", lo, hi, s)
			}
			seen[s] = true
		}
	}
}

// TestLinksMaterialiseOnFirstUse checks the lazy table: only the
// host-ARM link exists after construction, a pair materialises when
// Link first names it (in either order, with its override resolved at
// that moment), untouched pairs stay empty, and a self-link still
// panics.
func TestLinksMaterialiseOnFirstUse(t *testing.T) {
	sim := simtime.New()
	c, err := FromTopology(sim, CrossRackTopology("xrack", 2, 1, 2, 0, slowNet()))
	if err != nil {
		t.Fatal(err)
	}
	live := func() int {
		n := 0
		for _, l := range c.links {
			if l != nil {
				n++
			}
		}
		return n
	}
	if got := live(); got != 1 || c.links[pairSlot(c.X86.Index, c.ARM.Index)] == nil {
		t.Fatalf("%d links after construction, want only the eager host-ARM link", got)
	}
	host, far := c.Nodes[1], c.Nodes[4] // x86-01, armb-01
	sim.At(5*time.Second, func() {
		l := c.Link(far, host)
		if l != c.Link(host, far) {
			t.Error("Link(a, b) != Link(b, a)")
		}
		if l.Net != slowNet() {
			t.Errorf("late-created cross-rack link = %+v, want the override", l.Net)
		}
		if l.Queued() != 0 {
			t.Errorf("fresh link carries %d transfers", l.Queued())
		}
	})
	sim.Run()
	if got := live(); got != 2 {
		t.Fatalf("%d links after one touched pair, want 2", got)
	}
	if c.links[pairSlot(0, 1)] != nil || c.links[pairSlot(3, 4)] != nil {
		t.Fatal("a pair never passed to Link was materialised")
	}
	if got := c.Link(c.Nodes[0], c.Nodes[1]).Net; got != popcorn.EthernetGbps1() {
		t.Fatalf("in-rack link = %+v, want the default net", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("self-link did not panic")
		}
	}()
	c.Link(host, host)
}

// TestLateLinkMatchesEagerServer is the identity the lazy table rests
// on: a link first touched at t > 0 finishes a fixed transfer schedule
// at the same nanoseconds, with the same occupancy integral, as a
// PSServer built at t = 0 and fed at the same instants.
func TestLateLinkMatchesEagerServer(t *testing.T) {
	type job struct {
		at   time.Duration
		work time.Duration
	}
	// Overlapping transfers (capacity 1, so these saturate), an idle
	// gap, and non-round durations that exercise the ceil-to-ns
	// completion schedule.
	jobs := []job{
		{1500 * time.Millisecond, 333333 * time.Microsecond},
		{1500 * time.Millisecond, 100 * time.Millisecond},
		{1600 * time.Millisecond, 777777 * time.Nanosecond},
		{1700 * time.Millisecond, 250 * time.Millisecond},
		{4 * time.Second, 1234567 * time.Nanosecond},
		{4 * time.Second, 7 * time.Millisecond},
		{4*time.Second + 3*time.Millisecond, 20 * time.Millisecond},
	}
	run := func(first time.Duration, server func(sim *simtime.Simulator) func() *simtime.PSServer) ([]time.Duration, float64) {
		sim := simtime.New()
		ps := server(sim)
		done := make([]time.Duration, len(jobs))
		if first > 0 {
			// Touch the server before any transfer, at a third instant.
			sim.At(first, func() { _ = ps().Active() })
		}
		for i, j := range jobs {
			sim.At(j.at, func() { ps().Submit(j.work, func() { done[i] = sim.Now() }) })
		}
		sim.Run()
		return done, ps().JobSeconds()
	}
	eager := func(sim *simtime.Simulator) func() *simtime.PSServer {
		ps := simtime.NewPSServer(sim, 1)
		return func() *simtime.PSServer { return ps }
	}
	lazy := func(sim *simtime.Simulator) func() *simtime.PSServer {
		c, err := FromTopology(sim, ScaleOutTopology("r", 2, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		return func() *simtime.PSServer { return c.Link(c.Nodes[3], c.Nodes[1]).PS }
	}
	want, wantJS := run(0, eager)
	for _, first := range []time.Duration{0, 700 * time.Millisecond} {
		got, gotJS := run(first, lazy)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("first touch %v: job %d finished at %v, eager server at %v", first, i, got[i], want[i])
			}
		}
		if math.Float64bits(gotJS) != math.Float64bits(wantJS) {
			t.Fatalf("first touch %v: JobSeconds %v, eager server %v", first, gotJS, wantJS)
		}
	}
}

// benchmarkFromTopology measures materialising a scale-out rack: node
// run queues, the pair table and the eager host-ARM link.
func benchmarkFromTopology(b *testing.B, topo Topology) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FromTopology(simtime.New(), topo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterFromTopology* build the rack256 and rack1024 fleets
// of the checked-in million-request campaigns.
func BenchmarkClusterFromTopology256(b *testing.B) {
	benchmarkFromTopology(b, ScaleOutTopology("rack256", 64, 192, 32))
}

func BenchmarkClusterFromTopology1024(b *testing.B) {
	benchmarkFromTopology(b, ScaleOutTopology("rack1024", 256, 768, 128))
}
