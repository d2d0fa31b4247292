package cluster

import (
	"fmt"
	"math"

	"xartrek/internal/isa"
	"xartrek/internal/popcorn"
)

// NodeSpec describes one CPU server of a topology: its ISA class, core
// count and cost model. A nil Cost selects the default model for the
// architecture (the paper's Xeon Bronze 3104 or Cavium ThunderX
// calibration).
type NodeSpec struct {
	Name  string
	Arch  isa.Arch
	Cores int
	Cost  *isa.CostModel
}

// FPGASpec describes one accelerator card of a topology. Cards are
// PCIe-attached to the scheduler host; the device model itself lives in
// packages fpga/xrt and is instantiated per experiment platform.
type FPGASpec struct {
	Name string
}

// LinkSpec overrides the interconnect between one unordered pair of
// named nodes. Pairs without an override use the topology's DefaultNet;
// a pair may be overridden at most once, in either orientation.
type LinkSpec struct {
	A, B string
	Net  popcorn.NetModel
}

// Topology is a configurable heterogeneous cluster: N CPU nodes of
// mixed ISA classes, M FPGA devices, and a per-pair link model. The
// paper's fixed testbed is PaperTopology(); scale-out variants are
// built with ScaleOutTopology or assembled by hand.
//
// Conventions the scheduler and experiment engine rely on:
//
//   - the first x86-class node is the scheduler host (processes start
//     there, the load metric samples it),
//   - node order is significant and deterministic: placement ties break
//     toward the lower index,
//   - every FPGA is reachable from the host over PCIe.
type Topology struct {
	Name  string
	Nodes []NodeSpec
	FPGAs []FPGASpec
	// DefaultNet is the interconnect model for any node pair without a
	// LinkSpec override (the paper's shared 1 Gbps Ethernet).
	DefaultNet popcorn.NetModel
	Links      []LinkSpec
}

// PaperTopology returns the paper's Section 4 testbed: one Dell 7920
// x86 host, one Cavium ThunderX ARM server, one Alveo U50, 1 Gbps
// Ethernet between the servers.
func PaperTopology() Topology {
	return Topology{
		Name: "paper",
		Nodes: []NodeSpec{
			{Name: "dell7920", Arch: isa.X86_64, Cores: 6},
			{Name: "thunderx", Arch: isa.ARM64, Cores: 96},
		},
		FPGAs:      []FPGASpec{{Name: "alveo-u50"}},
		DefaultNet: popcorn.EthernetGbps1(),
	}
}

// ScaleOutTopology builds a homogeneous-rack scale-out of the paper
// testbed: nX86 copies of the x86 host, nARM copies of the ARM server
// and nFPGA accelerator cards, all pairs joined by the default 1 Gbps
// Ethernet. Node names are deterministic (x86-00, arm-00, fpga-00, ...)
// so experiment output is stable.
func ScaleOutTopology(name string, nX86, nARM, nFPGA int) Topology {
	t := Topology{Name: name, DefaultNet: popcorn.EthernetGbps1()}
	for i := 0; i < nX86; i++ {
		t.Nodes = append(t.Nodes, NodeSpec{
			Name: fmt.Sprintf("x86-%02d", i), Arch: isa.X86_64, Cores: 6,
		})
	}
	for i := 0; i < nARM; i++ {
		t.Nodes = append(t.Nodes, NodeSpec{
			Name: fmt.Sprintf("arm-%02d", i), Arch: isa.ARM64, Cores: 96,
		})
	}
	for i := 0; i < nFPGA; i++ {
		t.FPGAs = append(t.FPGAs, FPGASpec{Name: fmt.Sprintf("fpga-%02d", i)})
	}
	return t
}

// CrossRackTopology builds a two-rack cluster with an asymmetric
// interconnect: rack A holds nX86 entry/scheduler hosts and nARMNear
// ARM servers joined by DefaultNet-class 1 Gbps Ethernet; rack B holds
// nARMFar ARM servers reachable from rack A only over the given cross
// model (every A↔B pair gets a LinkSpec override). The nFPGA cards
// stay PCIe-attached to the hosts, as in every other topology. This is
// the canonical testbed for link-aware placement: the far ARM capacity
// is real, but a policy that ignores the slow hop pays its transfer
// cost on every second migration.
//
// Node names are deterministic (x86-00, arma-00, armb-00, fpga-00, …)
// so experiment output is stable.
func CrossRackTopology(name string, nX86, nARMNear, nARMFar, nFPGA int, cross popcorn.NetModel) Topology {
	t := Topology{Name: name, DefaultNet: popcorn.EthernetGbps1()}
	var rackA, rackB []string
	for i := 0; i < nX86; i++ {
		n := fmt.Sprintf("x86-%02d", i)
		t.Nodes = append(t.Nodes, NodeSpec{Name: n, Arch: isa.X86_64, Cores: 6})
		rackA = append(rackA, n)
	}
	for i := 0; i < nARMNear; i++ {
		n := fmt.Sprintf("arma-%02d", i)
		t.Nodes = append(t.Nodes, NodeSpec{Name: n, Arch: isa.ARM64, Cores: 96})
		rackA = append(rackA, n)
	}
	for i := 0; i < nARMFar; i++ {
		n := fmt.Sprintf("armb-%02d", i)
		t.Nodes = append(t.Nodes, NodeSpec{Name: n, Arch: isa.ARM64, Cores: 96})
		rackB = append(rackB, n)
	}
	for i := 0; i < nFPGA; i++ {
		t.FPGAs = append(t.FPGAs, FPGASpec{Name: fmt.Sprintf("fpga-%02d", i)})
	}
	for _, a := range rackA {
		for _, b := range rackB {
			t.Links = append(t.Links, LinkSpec{A: a, B: b, Net: cross})
		}
	}
	return t
}

// NetBetween resolves the interconnect model between two named nodes:
// the LinkSpec override when one exists (either orientation),
// DefaultNet otherwise. It answers the spec-level transfer-cost
// question — "what would moving bytes between these nodes cost" —
// without materialising the topology; Cluster.TransferEstimate is the
// materialised equivalent.
func (t Topology) NetBetween(a, b string) popcorn.NetModel {
	for _, l := range t.Links {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l.Net
		}
	}
	return t.DefaultNet
}

// MaxNodes bounds a topology's CPU nodes and, separately, its FPGAs.
// A cluster keeps one link slot per node pair, so the bound holds that
// table to at most 2^23 slots (64 MiB of pointers).
const MaxNodes = 4096

// Validate checks the structural invariants the scheduler and the
// experiment engine assume.
func (t Topology) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("cluster: topology %q has no nodes", t.Name)
	}
	if len(t.Nodes) > MaxNodes {
		return fmt.Errorf("cluster: topology %q has %d nodes, more than %d", t.Name, len(t.Nodes), MaxNodes)
	}
	if len(t.FPGAs) > MaxNodes {
		return fmt.Errorf("cluster: topology %q has %d FPGAs, more than %d", t.Name, len(t.FPGAs), MaxNodes)
	}
	names := make(map[string]bool, len(t.Nodes))
	hasX86 := false
	for _, n := range t.Nodes {
		if n.Name == "" {
			return fmt.Errorf("cluster: topology %q has an unnamed node", t.Name)
		}
		if names[n.Name] {
			return fmt.Errorf("cluster: topology %q: duplicate node %q", t.Name, n.Name)
		}
		names[n.Name] = true
		if n.Cores <= 0 {
			return fmt.Errorf("cluster: topology %q: node %q has %d cores", t.Name, n.Name, n.Cores)
		}
		if n.Arch == isa.X86_64 {
			hasX86 = true
		}
	}
	if !hasX86 {
		return fmt.Errorf("cluster: topology %q has no x86 node to host the scheduler", t.Name)
	}
	fpgaNames := make(map[string]bool, len(t.FPGAs))
	for _, f := range t.FPGAs {
		if f.Name == "" {
			return fmt.Errorf("cluster: topology %q has an unnamed FPGA", t.Name)
		}
		if fpgaNames[f.Name] {
			return fmt.Errorf("cluster: topology %q: duplicate FPGA %q", t.Name, f.Name)
		}
		fpgaNames[f.Name] = true
	}
	overridden := make(map[[2]string]bool, len(t.Links))
	for _, l := range t.Links {
		if !names[l.A] || !names[l.B] {
			return fmt.Errorf("cluster: topology %q: link %s-%s names an unknown node", t.Name, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("cluster: topology %q: self-link on %s", t.Name, l.A)
		}
		// One override per unordered pair: with two, NetBetween and the
		// materialised link could each pick a different one.
		pair := [2]string{l.A, l.B}
		if pair[0] > pair[1] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		if overridden[pair] {
			return fmt.Errorf("cluster: topology %q: link %s-%s overridden twice", t.Name, pair[0], pair[1])
		}
		overridden[pair] = true
		if err := checkNet(l.Net); err != nil {
			return fmt.Errorf("cluster: topology %q: link %s-%s %w", t.Name, l.A, l.B, err)
		}
	}
	if err := checkNet(t.DefaultNet); err != nil {
		return fmt.Errorf("cluster: topology %q: default net %w", t.Name, err)
	}
	return nil
}

// checkNet rejects an interconnect model that is a spec error rather
// than a slow link: a bandwidth that is not positive and finite (NaN
// included) or a negative RTT.
func checkNet(n popcorn.NetModel) error {
	if !(n.BandwidthBps > 0) || math.IsInf(n.BandwidthBps, 1) {
		return fmt.Errorf("has bandwidth %v B/s, want positive and finite", n.BandwidthBps)
	}
	if n.LatencyRTT < 0 {
		return fmt.Errorf("has negative RTT %v", n.LatencyRTT)
	}
	return nil
}

// CoresOfArch sums the core counts of every node of the given class.
func (t Topology) CoresOfArch(arch isa.Arch) int {
	total := 0
	for _, n := range t.Nodes {
		if n.Arch == arch {
			total += n.Cores
		}
	}
	return total
}

// TotalCPUCores sums all CPU cores across the topology.
func (t Topology) TotalCPUCores() int {
	total := 0
	for _, n := range t.Nodes {
		total += n.Cores
	}
	return total
}

// machine materialises a NodeSpec, filling in the default cost model
// for its architecture.
func (n NodeSpec) machine() (Machine, error) {
	cost := n.Cost
	if cost == nil {
		var err error
		cost, err = isa.CostModelFor(n.Arch)
		if err != nil {
			return Machine{}, fmt.Errorf("cluster: node %q: %w", n.Name, err)
		}
	}
	return Machine{Name: n.Name, Arch: n.Arch, Cores: n.Cores, Cost: cost}, nil
}
