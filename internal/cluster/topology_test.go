package cluster

import (
	"math"
	"strings"
	"testing"
	"time"

	"xartrek/internal/isa"
	"xartrek/internal/popcorn"
	"xartrek/internal/simtime"
)

func TestPaperTopologyMatchesFixedTestbed(t *testing.T) {
	c, err := FromTopology(simtime.New(), PaperTopology())
	if err != nil {
		t.Fatal(err)
	}
	// The topology-built cluster must be indistinguishable from the
	// historical fixed testbed New() returns.
	if c.X86 == nil || c.X86.Name != "dell7920" || c.X86.Cores != 6 || c.X86.Arch != isa.X86_64 {
		t.Fatalf("x86 host = %+v", c.X86)
	}
	if c.ARM == nil || c.ARM.Name != "thunderx" || c.ARM.Cores != 96 || c.ARM.Arch != isa.ARM64 {
		t.Fatalf("arm node = %+v", c.ARM)
	}
	if c.TotalCores() != 102 {
		t.Fatalf("total cores = %d, want 102", c.TotalCores())
	}
	if c.EthLink == nil {
		t.Fatal("no host-ARM link")
	}
	want := popcorn.EthernetGbps1()
	if c.Eth != want {
		t.Fatalf("Eth = %+v, want %+v", c.Eth, want)
	}
	if got := c.Link(c.X86, c.ARM); got.PS != c.EthLink || got.Net != c.Eth {
		t.Fatal("Link(x86, arm) is not the EthLink compatibility view")
	}
	if len(PaperTopology().FPGAs) != 1 {
		t.Fatal("paper topology should carry one FPGA")
	}
}

func TestScaleOutTopologyShape(t *testing.T) {
	topo := ScaleOutTopology("rack32", 8, 24, 4)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(topo.Nodes); n != 32 {
		t.Fatalf("nodes = %d, want 32", n)
	}
	if n := len(topo.FPGAs); n != 4 {
		t.Fatalf("fpgas = %d, want 4", n)
	}
	if got := topo.CoresOfArch(isa.X86_64); got != 48 {
		t.Fatalf("x86 cores = %d, want 48", got)
	}
	if got := topo.CoresOfArch(isa.ARM64); got != 24*96 {
		t.Fatalf("arm cores = %d, want %d", got, 24*96)
	}
	c, err := FromTopology(simtime.New(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.NodesOfArch(isa.ARM64)) != 24 {
		t.Fatalf("materialised ARM nodes = %d", len(c.NodesOfArch(isa.ARM64)))
	}
	// Node order and indices are stable.
	for i, n := range c.Nodes {
		if n.Index != i {
			t.Fatalf("node %s has index %d at position %d", n.Name, n.Index, i)
		}
	}
	// Any distinct pair gets a link; both argument orders agree.
	a, b := c.Nodes[3], c.Nodes[17]
	if c.Link(a, b) == nil || c.Link(a, b) != c.Link(b, a) {
		t.Fatal("pair links missing or order-dependent")
	}
}

func TestTopologyValidateRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name string
		topo Topology
		want string
	}{
		{"empty", Topology{Name: "e"}, "no nodes"},
		{"dup-node", Topology{Name: "d", Nodes: []NodeSpec{
			{Name: "n", Arch: isa.X86_64, Cores: 1},
			{Name: "n", Arch: isa.ARM64, Cores: 1},
		}}, "duplicate node"},
		{"no-x86", Topology{Name: "a", Nodes: []NodeSpec{
			{Name: "n", Arch: isa.ARM64, Cores: 1},
		}}, "no x86 node"},
		{"zero-cores", Topology{Name: "z", Nodes: []NodeSpec{
			{Name: "n", Arch: isa.X86_64, Cores: 0},
		}}, "cores"},
		{"bad-link", Topology{Name: "l",
			Nodes: []NodeSpec{{Name: "n", Arch: isa.X86_64, Cores: 1}},
			Links: []LinkSpec{{A: "n", B: "ghost"}},
		}, "unknown node"},
		{"dup-fpga", Topology{Name: "f",
			Nodes: []NodeSpec{{Name: "n", Arch: isa.X86_64, Cores: 1}},
			FPGAs: []FPGASpec{{Name: "u50"}, {Name: "u50"}},
		}, "duplicate FPGA"},
		// A net no transfer can cross names the overridden pair or the
		// default net; it would otherwise run as a free link.
		{"zero-bandwidth-link", CrossRackTopology("x", 1, 0, 2, 0, popcorn.NetModel{LatencyRTT: time.Millisecond}),
			"link x86-00-armb-00 has bandwidth 0 B/s"},
		{"negative-bandwidth-link", CrossRackTopology("x", 1, 0, 2, 0, popcorn.NetModel{BandwidthBps: -5}),
			"link x86-00-armb-00 has bandwidth -5 B/s"},
		{"negative-rtt-link", CrossRackTopology("x", 1, 0, 2, 0, popcorn.NetModel{LatencyRTT: -time.Millisecond, BandwidthBps: 1e4}),
			"link x86-00-armb-00 has negative RTT -1ms"},
		{"too-many-nodes", ScaleOutTopology("big", 1, MaxNodes, 0), "has 4097 nodes, more than 4096"},
		{"too-many-fpgas", ScaleOutTopology("big", 1, 0, MaxNodes+1), "has 4097 FPGAs, more than 4096"},
		{"zero-default-net", withDefaultNet(popcorn.NetModel{}), "default net has bandwidth 0 B/s"},
		{"nan-default-net", withDefaultNet(popcorn.NetModel{BandwidthBps: math.NaN()}), "default net has bandwidth NaN B/s"},
		{"inf-default-net", withDefaultNet(popcorn.NetModel{BandwidthBps: math.Inf(1)}), "default net has bandwidth +Inf B/s"},
	}
	for _, tc := range cases {
		err := tc.topo.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// withDefaultNet is a two-node scale-out whose pair uses net.
func withDefaultNet(net popcorn.NetModel) Topology {
	t := ScaleOutTopology("r", 1, 1, 0)
	t.DefaultNet = net
	return t
}

func TestLinkOverrideApplies(t *testing.T) {
	fast := popcorn.NetModel{LatencyRTT: 10 * time.Microsecond, BandwidthBps: 1.25e9}
	topo := Topology{
		Name: "mixed",
		Nodes: []NodeSpec{
			{Name: "h", Arch: isa.X86_64, Cores: 6},
			{Name: "a0", Arch: isa.ARM64, Cores: 96},
			{Name: "a1", Arch: isa.ARM64, Cores: 96},
		},
		DefaultNet: popcorn.EthernetGbps1(),
		Links:      []LinkSpec{{A: "a1", B: "h", Net: fast}},
	}
	c, err := FromTopology(simtime.New(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Link(c.Nodes[0], c.Nodes[2]).Net; got != fast {
		t.Fatalf("override link = %+v, want %+v", got, fast)
	}
	if got := c.Link(c.Nodes[0], c.Nodes[1]).Net; got != popcorn.EthernetGbps1() {
		t.Fatalf("default link = %+v", got)
	}
}

func TestClassifyLoadScalesWithTopology(t *testing.T) {
	c, err := FromTopology(simtime.New(), ScaleOutTopology("r", 2, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	// 12 x86 cores, 108 total.
	if got := c.ClassifyLoad(11); got != LoadLow {
		t.Fatalf("ClassifyLoad(11) = %v, want low", got)
	}
	if got := c.ClassifyLoad(108); got != LoadMedium {
		t.Fatalf("ClassifyLoad(108) = %v, want medium", got)
	}
	if got := c.ClassifyLoad(109); got != LoadHigh {
		t.Fatalf("ClassifyLoad(109) = %v, want high", got)
	}
}
