package exper

import (
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/popcorn"
)

// SlowCrossRackNet is the canonical degraded cross-rack hop of the
// policy-comparison campaign: 100 Mbps shared Ethernet with a 2 ms
// round trip — a congested inter-rack uplink next to the in-rack
// 1 Gbps links. A CG-A migration's 26 MiB working set takes ~2.2 s
// over it versus ~220 ms in-rack, so placement that ignores the link
// pays double-digit seconds at the tail.
func SlowCrossRackNet() popcorn.NetModel {
	return popcorn.NetModel{LatencyRTT: 2 * time.Millisecond, BandwidthBps: 12.5e6}
}

// PolicyComparisonTopology is the rack pair the placement policies are
// compared on: four x86 entry hosts and two ARM servers in rack A, two
// more ARM servers in rack B behind SlowCrossRackNet, and two FPGA
// cards on the hosts' PCIe. Half the ARM capacity is "far": a
// least-loaded policy alternates onto it and pays the slow hop on
// every second migration; a link-aware policy holds placements in-rack
// until the near queue outweighs the transfer cost.
func PolicyComparisonTopology() cluster.Topology {
	return cluster.CrossRackTopology("xrack", 4, 2, 2, 2, SlowCrossRackNet())
}

// Policies lists the selectable placement policies in report order.
func Policies() []string {
	return []string{PolicyDefault, PolicyLinkAware, PolicyAffinity}
}
