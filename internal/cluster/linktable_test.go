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

// TestLinksHeldOnlyInFlight checks the pooled table: a pair holds a
// link only while a transfer is in flight, and its last transfer
// leaving, by completion or Cancel, returns the server to the pool;
// TransferEstimate and Queued on untouched pairs create nothing; the
// pinned host-ARM link survives idleness; a released server carries
// the next pair's transfer; and a self-link still panics.
func TestLinksHeldOnlyInFlight(t *testing.T) {
	sim := simtime.New()
	c, err := FromTopology(sim, CrossRackTopology("xrack", 2, 1, 2, 0, slowNet()))
	if err != nil {
		t.Fatal(err)
	}
	held := func() int {
		n := 0
		for _, l := range c.links {
			if l != nil {
				n++
			}
		}
		return n
	}
	hostARM := pairSlot(c.X86.Index, c.ARM.Index)
	if got := held(); got != 1 || c.links[hostARM] == nil || len(c.LinkServers()) != 1 {
		t.Fatalf("%d links held, %d servers after construction, want only the pinned host-ARM link", got, len(c.LinkServers()))
	}
	host, far := c.Nodes[1], c.Nodes[4] // x86-01, armb-01
	const bytes = 26 << 20
	if got, want := c.TransferEstimate(far, host, bytes), slowNet().TransferTime(bytes); got != want {
		t.Fatalf("cross-rack estimate %v, want the override's %v", got, want)
	}
	if got := c.Queued(host, far) + c.Queued(c.Nodes[0], c.Nodes[1]); got != 0 {
		t.Fatalf("untouched pairs report %d transfers", got)
	}
	if c.TransferEstimate(host, host, bytes) != 0 || c.Queued(host, host) != 0 {
		t.Fatal("a node with itself reports a transfer")
	}
	if got := held(); got != 1 || len(c.LinkServers()) != 1 {
		t.Fatalf("estimates and queue reads created links: %d held, %d servers", got, len(c.LinkServers()))
	}

	// Two overlapping transfers, the second fetched from the other end:
	// the pair holds one link until both leave.
	var pooled *Link
	sim.At(5*time.Second, func() {
		pooled = c.Link(far, host)
		if a, b := pooled.Pair(); a != far || b != host {
			t.Errorf("link serves %v-%v, want %s-%s", a, b, far.Name, host.Name)
		}
		if pooled.Net != slowNet() {
			t.Errorf("cross-rack link = %+v, want the override", pooled.Net)
		}
		pooled.PS.Submit(time.Second, nil)
	})
	sim.At(5500*time.Millisecond, func() {
		if l := c.Link(host, far); l != pooled {
			t.Error("Link(a, b) != Link(b, a) while a transfer is in flight")
		}
		c.Link(host, far).PS.Submit(100*time.Millisecond, nil)
		if got := c.Queued(far, host); got != 2 || held() != 2 {
			t.Errorf("Queued = %d, %d links held with two transfers in flight", got, held())
		}
	})
	sim.Run()
	if got := held(); got != 1 || c.Queued(host, far) != 0 {
		t.Fatalf("%d links held after the pair drained, want the pinned one", got)
	}
	if a, b := pooled.Pair(); a != nil || b != nil {
		t.Fatalf("a released link still serves %v-%v", a, b)
	}

	// The pinned link keeps its slot and server through idleness.
	c.EthLink.Submit(time.Second, nil)
	sim.Run()
	if c.links[hostARM] == nil || c.Link(c.ARM, c.X86).PS != c.EthLink {
		t.Fatal("the host-ARM link left its slot when it went idle")
	}

	// The released server carries the next pair's transfer at full
	// rate with that pair's model, and a cancelled last transfer
	// releases it too.
	in := c.Link(c.Nodes[0], c.Nodes[1])
	if in != pooled || in.Net != popcorn.EthernetGbps1() {
		t.Fatalf("in-rack pair got a new server or the wrong model (%+v)", in.Net)
	}
	start := sim.Now()
	var done time.Duration
	in.PS.Submit(300*time.Millisecond, func() { done = sim.Now() - start })
	sim.Run()
	if done != 300*time.Millisecond {
		t.Fatalf("transfer on a reused server took %v, want 300ms", done)
	}
	job := c.Link(far, c.Nodes[3]).PS.Submit(time.Second, nil)
	job.Cancel()
	if got := held(); got != 1 || len(c.LinkServers()) != 2 {
		t.Fatalf("after a cancel: %d links held, %d servers; want 1 and 2", got, len(c.LinkServers()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("self-link did not panic")
		}
	}()
	c.Link(host, host)
}

// TestLateLinkMatchesEagerServer is the identity the pooled table
// rests on: a link first touched at t > 0 finishes a fixed transfer
// schedule at the same nanoseconds, with the same occupancy integral,
// as a PSServer built at t = 0 and fed at the same instants, and so
// does a server that first carried another pair's transfers and went
// idle.
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
	reused := func(sim *simtime.Simulator) func() *simtime.PSServer {
		c, err := FromTopology(sim, ScaleOutTopology("r", 2, 2, 0))
		if err != nil {
			t.Fatal(err)
		}
		// Another pair's transfers, at other instants and with their own
		// job sequence numbers, drain before the schedule starts.
		var prior *simtime.PSServer
		sim.At(200*time.Millisecond, func() {
			prior = c.Link(c.Nodes[1], c.Nodes[2]).PS
			prior.Submit(333333*time.Microsecond, nil)
			prior.Submit(7777777*time.Nanosecond, nil)
		})
		sim.At(300*time.Millisecond, func() { prior.Submit(250*time.Millisecond, nil) })
		return func() *simtime.PSServer {
			ps := c.Link(c.Nodes[3], c.Nodes[1]).PS
			if ps != prior {
				t.Fatal("the pair did not reuse the released server")
			}
			return ps
		}
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
	// The reused server's occupancy integral also counts the prior
	// pair's transfers (no caller reads a link's), so only the
	// completions are compared.
	got, _ := run(0, reused)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused server: job %d finished at %v, eager server at %v", i, got[i], want[i])
		}
	}
}

// benchmarkFromTopology measures materialising a scale-out rack: node
// run queues, the pair table and the pinned host-ARM link.
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
