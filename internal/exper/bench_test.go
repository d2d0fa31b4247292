package exper

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/core/threshold"
	"xartrek/internal/faults"
)

// benchmarkEntryPick measures the serving front end's per-arrival entry
// work on an n-host x86 fleet: pick the least-loaded eligible host. An
// instant's last arrival, which on Poisson cells is nearly every
// arrival, does no more. Every host carries three resident
// long-running jobs except the last, which carries two, so the pick
// lands at the far end of fleet order: the worst case for a scan and
// for the index's word walk alike.
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

// lifecycleRig drives single requests through the launch lifecycle
// with no arrival stream: each request launches on x86-01 (a non-host
// entry, whose work can be fault-tracked) and the simulator steps until
// its done fires. load long-running jobs stay resident on the entry
// node throughout. tracked installs a fault runtime whose only event
// lies beyond any time the rig reaches, so every request carries fault
// tracking and none is disrupted.
type lifecycleRig struct {
	p        *Platform
	entry    *cluster.Node
	finished bool
	last     RunResult
	done     func(RunResult)
}

func newLifecycleRig(tb testing.TB, topo cluster.Topology, load int, tracked bool) *lifecycleRig {
	arts := testArtifacts(tb)
	p, err := NewPlatformTopo(arts, topo, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	r := &lifecycleRig{p: p, entry: p.x86Nodes[1]}
	for j := 0; j < load; j++ {
		r.entry.ExecTransient(10000*time.Hour, nil)
	}
	if tracked {
		never := time.Duration(1) << 62
		spec := &faults.Spec{Events: []faults.Event{
			{At: faults.Duration(never - 1), Kind: faults.NodeDown, Node: r.entry.Name},
		}}
		if p.faults, err = newFaultRuntime(p, spec, 1, never, false); err != nil {
			tb.Fatal(err)
		}
	}
	r.done = func(res RunResult) { r.finished, r.last = true, res }
	return r
}

// request runs the i-th request (the next app of the set, cycling)
// under mode to completion.
func (r *lifecycleRig) request(tb testing.TB, i int, mode Mode) {
	apps := r.p.arts.Apps
	r.finished = false
	r.p.LaunchAppOnClass(r.entry, apps[i%len(apps)], mode, "", r.p.Sim.Now(), r.done)
	for !r.finished && r.p.Sim.Step() {
	}
	if !r.finished {
		tb.Fatal("request never finished")
	}
}

// benchmarkRequestLifecycle measures one Xar-Trek request per op
// through a lifecycleRig.
func benchmarkRequestLifecycle(b *testing.B, topo cluster.Topology, load int, tracked bool) {
	r := newLifecycleRig(b, topo, load, tracked)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.request(b, i, ModeXarTrek)
	}
	b.StopTimer()
	if r.entry.Load() < load {
		b.Fatalf("resident load drained by %v of virtual time", r.p.Sim.Now())
	}
	b.ReportMetric(r.p.Sim.Now().Seconds()/float64(b.N), "vsec/op")
}

// TestRequestLifecycleDoesNotAllocate gates the request path: once
// the pools are warm, a request through LaunchAppOnClass allocates
// nothing, whether Xar-Trek migrates it to ARM (40 resident jobs load
// the entry) or it runs on its x86 entry (vanilla-x86), and with or
// without fault tracking — tokens, cancellable jobs and continuations
// all come from pools or are bound once.
func TestRequestLifecycleDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    Mode
		target  threshold.Target
		tracked bool
	}{
		{"arm", ModeXarTrek, threshold.TargetARM, false},
		{"arm-tracked", ModeXarTrek, threshold.TargetARM, true},
		{"x86", ModeVanillaX86, threshold.TargetX86, false},
		{"x86-tracked", ModeVanillaX86, threshold.TargetX86, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newLifecycleRig(t, cluster.ScaleOutTopology("life-arm", 2, 2, 0), 40, tc.tracked)
			if allocs := r.allocsPerRequest(t, tc.mode, tc.target); allocs != 0 {
				t.Errorf("allocs per request = %v, want 0", allocs)
			}
		})
	}
}

// TestRequestLifecycleFPGAAllocs pins the FPGA path at its 3
// allocations per request, tracked or not: the invocation closures of
// execFPGAInvoke and xrt.Device.Invoke. The compute unit hands the
// request's own callback to its completion chain, without a wrapper.
func TestRequestLifecycleFPGAAllocs(t *testing.T) {
	for _, tracked := range []bool{false, true} {
		t.Run(fmt.Sprintf("tracked=%v", tracked), func(t *testing.T) {
			r := newLifecycleRig(t, cluster.ScaleOutTopology("life-fpga", 2, 0, 1), 0, tracked)
			if allocs := r.allocsPerRequest(t, ModeXarTrek, threshold.TargetFPGA); allocs != 3 {
				t.Errorf("allocs per request = %v, want 3", allocs)
			}
		})
	}
}

// allocsPerRequest warms the rig's pools with 64 requests under mode,
// then reports the mean allocations of 500 more, failing the test if
// none of them ran on target.
func (r *lifecycleRig) allocsPerRequest(t *testing.T, mode Mode, target threshold.Target) float64 {
	t.Helper()
	i, hits := 0, 0
	req := func() {
		r.request(t, i, mode)
		if r.last.Target == target {
			hits++
		}
		i++
	}
	for k := 0; k < 64; k++ {
		req()
	}
	allocs := testing.AllocsPerRun(500, req)
	if hits == 0 {
		t.Fatalf("no request ran on %v", target)
	}
	return allocs
}

// BenchmarkRequestLifecycle* track the lifecycle layer (prologue,
// dispatch, execution chain, finish) for one request, untracked and
// fault-tracked. ARM: 40 resident jobs load the entry node so
// Algorithm 2 migrates to one of two ARM nodes. FPGA: one card and no
// load, so once the preconfigured image is resident the kernel runs in
// hardware.
func BenchmarkRequestLifecycleARM(b *testing.B) {
	benchmarkRequestLifecycle(b, cluster.ScaleOutTopology("life-arm", 2, 2, 0), 40, false)
}

func BenchmarkRequestLifecycleARMTracked(b *testing.B) {
	benchmarkRequestLifecycle(b, cluster.ScaleOutTopology("life-arm", 2, 2, 0), 40, true)
}

func BenchmarkRequestLifecycleFPGA(b *testing.B) {
	benchmarkRequestLifecycle(b, cluster.ScaleOutTopology("life-fpga", 2, 0, 1), 0, false)
}

func BenchmarkRequestLifecycleFPGATracked(b *testing.B) {
	benchmarkRequestLifecycle(b, cluster.ScaleOutTopology("life-fpga", 2, 0, 1), 0, true)
}

// benchmarkDecidePlatform measures one Algorithm 2 decision per op on
// tenants-churn's fleet (48 ARM nodes, 8 programmed cards, deadline
// policy) from entry x86-03, cycling the class's app mix: the
// scheduler layer of a real platform, device kernel lookups included.
// A busy entry's load exceeds every threshold of the mix, so each
// decision runs both placement scans.
func benchmarkDecidePlatform(b *testing.B, class string, busy bool) {
	d := newPlatformDecider(b, class, busy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.decide(b, i)
	}
}

// BenchmarkDecidePlatform* track the decision layer on real devices:
// above the thresholds the critical class scores every ARM node by
// link-aware time to result and the batch class packs onto the most
// loaded one; Idle is the below-threshold path most tenants-churn
// decisions take, which scans nothing.
func BenchmarkDecidePlatformCritical(b *testing.B) { benchmarkDecidePlatform(b, "critical", true) }
func BenchmarkDecidePlatformBatch(b *testing.B)    { benchmarkDecidePlatform(b, "batch", true) }
func BenchmarkDecidePlatformIdle(b *testing.B)     { benchmarkDecidePlatform(b, "critical", false) }

// digestBenchSamples are the latency digest benchmarks' 400k samples,
// the size of one tenants-churn cell: five applications at different
// latency scales, each sample a log-normal spread around its
// application's scale, drawn from a fixed seed. app[i] is sample i's
// application.
var digestBenchSamples = sync.OnceValues(func() (samples []time.Duration, app []int) {
	rng := rand.New(rand.NewSource(2021))
	scale := []float64{0.08, 0.2, 0.45, 0.7, 1.6} // seconds
	for range 400_000 {
		a := rng.Intn(len(scale))
		samples = append(samples, time.Duration(scale[a]*math.Exp(0.6*rng.NormFloat64())*float64(time.Second)))
		app = append(app, a)
	}
	return samples, app
})

// digestBenchLeaves are the leaf counts the digest benchmarks hold the
// samples in: one (a plain cell) and five (one per application, as the
// cell-wide digest of a fault-injected cell holds them).
var digestBenchLeaves = []int{1, 5}

// digestBenchP99 keeps the read benchmark's result live.
var digestBenchP99 time.Duration

// BenchmarkLatDigestExactAdd measures the exact digest's record path:
// one op appends the 400k samples, in completion order, to fresh
// leaves, each to its application's leaf when there are five.
func BenchmarkLatDigestExactAdd(b *testing.B) {
	samples, app := digestBenchSamples()
	for _, k := range digestBenchLeaves {
		b.Run(fmt.Sprintf("leaves=%d", k), func(b *testing.B) {
			leaves := make([]*latLeaf, k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := range leaves {
					leaves[j] = &latLeaf{}
				}
				for j, v := range samples {
					leaves[app[j]%k].add(v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(samples)), "ns/sample")
		})
	}
}

// BenchmarkLatDigestExactRead measures the exact digest's read path:
// one op reads p50, p95 and p99 of the 400k samples, as a serving
// report does, from the samples' completion order (restored before
// each op with the timer stopped). Five leaves read through
// selectLeaves, one through selectRank; a read after the first
// allocates nothing.
func BenchmarkLatDigestExactRead(b *testing.B) {
	samples, app := digestBenchSamples()
	for _, k := range digestBenchLeaves {
		b.Run(fmt.Sprintf("leaves=%d", k), func(b *testing.B) {
			d := &latDigest{}
			for range k {
				d.leaves = append(d.leaves, &latLeaf{})
			}
			restore := func() {
				for _, l := range d.leaves {
					l.samples = l.samples[:0]
				}
				for j, v := range samples {
					l := d.leaves[app[j]%k]
					l.samples = append(l.samples, v)
				}
			}
			restore()
			d.quantiles() // the range list of a multi-leaf read
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				restore()
				b.StartTimer()
				_, _, digestBenchP99 = d.quantiles()
			}
		})
	}
}
