package exper

import (
	"fmt"
	"testing"
	"time"

	"xartrek/internal/cluster"
)

// benchmarkEntryPick measures the serving front end's per-arrival entry
// work on an n-host x86 fleet: pick the least-loaded eligible host,
// count the placement for the rest of its arrival instant, and end the
// instant — one single-request Feed batch. Every host carries three
// resident long-running jobs except the last, which carries two, so
// the pick lands at the far end of fleet order: the worst case for a
// scan and for the index's word walk alike.
func benchmarkEntryPick(b *testing.B, n int) {
	arts := testArtifacts(b)
	p, err := NewPlatformTopo(arts, cluster.ScaleOutTopology(fmt.Sprintf("entry%d", n), n, 0, 0), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i, node := range p.x86Nodes {
		jobs := 3
		if i == n-1 {
			jobs = 2
		}
		for j := 0; j < jobs; j++ {
			node.ExecTransient(time.Hour, nil)
		}
	}
	want := p.x86Nodes[n-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entry := p.leastLoadedX86()
		p.addEntryLoad(entry, 1)
		p.addEntryLoad(entry, -1)
		if entry != want {
			b.Fatalf("picked %s, want %s", entry.Name, want.Name)
		}
	}
}

// BenchmarkEntryPick* track the entry-pick layer at 32, 256 and 1024
// entry hosts (DESIGN.md §8): the load index keeps it near-flat in
// fleet size.
func BenchmarkEntryPick32(b *testing.B)   { benchmarkEntryPick(b, 32) }
func BenchmarkEntryPick256(b *testing.B)  { benchmarkEntryPick(b, 256) }
func BenchmarkEntryPick1024(b *testing.B) { benchmarkEntryPick(b, 1024) }
