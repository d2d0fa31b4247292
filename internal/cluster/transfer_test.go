package cluster

import (
	"math"
	"testing"
	"time"

	"xartrek/internal/isa"
	"xartrek/internal/popcorn"
	"xartrek/internal/simtime"
)

func slowNet() popcorn.NetModel {
	return popcorn.NetModel{LatencyRTT: 2 * time.Millisecond, BandwidthBps: 12.5e6}
}

func TestCrossRackTopologyShape(t *testing.T) {
	topo := CrossRackTopology("xrack", 2, 1, 2, 3, slowNet())
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Nodes); got != 5 {
		t.Fatalf("nodes = %d, want 5", got)
	}
	if got := len(topo.FPGAs); got != 3 {
		t.Fatalf("FPGAs = %d, want 3", got)
	}
	// Every rack-A node (2 x86 + 1 near ARM) pairs with every rack-B
	// node (2 far ARM) over the slow model.
	if got := len(topo.Links); got != 6 {
		t.Fatalf("link overrides = %d, want 6 (3 rack-A × 2 rack-B)", got)
	}
	if got := topo.CoresOfArch(isa.ARM64); got != 3*96 {
		t.Fatalf("ARM cores = %d, want %d", got, 3*96)
	}
}

func TestNetBetweenResolvesOverrides(t *testing.T) {
	topo := CrossRackTopology("xrack", 1, 1, 1, 0, slowNet())
	// Cross-rack pair: the override, in either orientation.
	if nm := topo.NetBetween("x86-00", "armb-00"); nm != slowNet() {
		t.Fatalf("x86↔far = %+v, want slow override", nm)
	}
	if nm := topo.NetBetween("armb-00", "x86-00"); nm != slowNet() {
		t.Fatalf("reversed orientation lost the override: %+v", nm)
	}
	// In-rack pair: the default net.
	if nm := topo.NetBetween("x86-00", "arma-00"); nm != popcorn.EthernetGbps1() {
		t.Fatalf("in-rack pair = %+v, want default 1 Gbps", nm)
	}
	// Unknown pair: still the default (NetBetween is a spec-level
	// query, not a validator).
	if nm := topo.NetBetween("x86-00", "ghost"); nm != popcorn.EthernetGbps1() {
		t.Fatalf("unknown pair = %+v, want default", nm)
	}
}

func TestTransferEstimateWeighsLinkSpec(t *testing.T) {
	sim := simtime.New()
	c, err := FromTopology(sim, CrossRackTopology("xrack", 1, 1, 1, 0, slowNet()))
	if err != nil {
		t.Fatal(err)
	}
	host := c.X86
	var near, far *Node
	for _, n := range c.NodesOfArch(isa.ARM64) {
		switch n.Name {
		case "arma-00":
			near = n
		case "armb-00":
			far = n
		}
	}
	const bytes = 26 << 20 // a CG-A working set
	fast := c.TransferEstimate(host, near, bytes)
	slow := c.TransferEstimate(host, far, bytes)
	if fast >= slow {
		t.Fatalf("near transfer %v not below far %v", fast, slow)
	}
	// 1 Gbps vs 100 Mbps: the far estimate is ~10x the near one.
	if slow < 9*fast {
		t.Fatalf("far/near ratio = %.1f, want ≈10", float64(slow)/float64(fast))
	}
	if want := slowNet().TransferTime(bytes); slow != want {
		t.Fatalf("far estimate %v != LinkSpec model %v", slow, want)
	}
}

// TestLinkQueuedTracksInFlightTransfers reads Queued on the pinned
// host-ARM pair and on a pooled one, in either argument order.
func TestLinkQueuedTracksInFlightTransfers(t *testing.T) {
	sim := simtime.New()
	c, err := FromTopology(sim, ScaleOutTopology("r", 1, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, far := range []*Node{c.ARM, c.Nodes[2]} {
		if got := c.Queued(c.X86, far); got != 0 {
			t.Fatalf("idle pair x86-%s Queued = %d, want 0", far.Name, got)
		}
		done := 0
		c.Link(c.X86, far).PS.Submit(time.Second, func() { done++ })
		c.Link(far, c.X86).PS.Submit(time.Second, func() { done++ })
		if got := c.Queued(far, c.X86); got != 2 {
			t.Fatalf("x86-%s Queued = %d, want 2", far.Name, got)
		}
		sim.Run()
		if done != 2 || c.Queued(c.X86, far) != 0 {
			t.Fatalf("x86-%s after drain: done=%d queued=%d", far.Name, done, c.Queued(c.X86, far))
		}
	}
}

// TestTransferTimeSaturates: on an extreme but valid link the transfer
// time saturates at the largest Duration, so the transfer never
// completes instead of wrapping negative and running for free.
func TestTransferTimeSaturates(t *testing.T) {
	topo := CrossRackTopology("xr", 1, 0, 1, 0, popcorn.NetModel{LatencyRTT: time.Millisecond, BandwidthBps: 1e-300})
	c, err := FromTopology(simtime.New(), topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{1, 1 << 30} {
		if got := c.TransferEstimate(c.Nodes[0], c.Nodes[1], n); got != math.MaxInt64 {
			t.Errorf("%d bytes at 1e-300 B/s: %v, want the largest Duration", n, got)
		}
	}
	late := popcorn.NetModel{LatencyRTT: math.MaxInt64 - time.Second, BandwidthBps: 1}
	if got := late.TransferTime(10); got != math.MaxInt64 {
		t.Errorf("RTT near the top plus 10 s: %v, want the largest Duration", got)
	}
}
