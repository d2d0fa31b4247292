package exper

import (
	"testing"

	"xartrek/internal/cluster"
	"xartrek/internal/core/sched"
	"xartrek/internal/core/threshold"
	"xartrek/internal/workloads"
)

// tenantsChurnMix is the app mix of the tenants-churn workload's two
// cohorts, weights expanded: critical interactive traffic and batch
// analytics.
var tenantsChurnMix = map[string][]string{
	"critical": {"FaceDet320", "FaceDet320", "Digit500"},
	"batch":    {"CG-A", "FaceDet640", "Digit2000"},
}

// platformDecider is one entry's scheduler server on tenants-churn's
// fleet, with one SLO class's app mix resolved to (app, kernel) pairs.
type platformDecider struct {
	srv   *sched.Server
	apps  []*workloads.App
	class string
}

// decide places the i-th request of the class's mix.
func (d platformDecider) decide(tb testing.TB, i int) {
	a := d.apps[i%len(d.apps)]
	if _, err := d.srv.DecideClass(a.Name, a.KernelName, d.class); err != nil {
		tb.Fatal(err)
	}
}

// newPlatformDecider builds tenants-churn's fleet — rack64 with split
// images under the deadline policy — programs every card with an image
// round-robin, and returns entry x86-03's server over the class's mix.
// Every kernel is resident on some card, so decisions start no
// reconfiguration and the fleet state stays fixed; cards ahead of a
// kernel's card answer HasKernel with a miss on every decision.
//
// A busy decider holds the entry's load above every threshold of the
// mix, through its count of processes blocked on a decision, so each
// decision runs both placement scans; an idle one leaves the entry at
// load 0, where Algorithm 2 keeps every request on x86 without
// scanning.
func newPlatformDecider(tb testing.TB, class string, busy bool) platformDecider {
	tb.Helper()
	arts := testSplitArtifacts(tb)
	p, err := NewPlatformTopo(arts, cluster.ScaleOutTopology("rack64", 16, 48, 8), Options{Policy: PolicyDeadline})
	if err != nil {
		tb.Fatal(err)
	}
	images := arts.Compile.Images
	for i, dev := range p.Devices {
		if err := dev.Program(images[i%len(images)], nil); err != nil {
			tb.Fatal(err)
		}
	}
	p.Sim.Run()
	entry := p.x86Nodes[3].Index
	d := platformDecider{srv: p.servers[entry], class: class}
	for _, name := range tenantsChurnMix[class] {
		a, ok := p.appByName[name]
		if !ok {
			tb.Fatalf("app %s missing from the artifact set", name)
		}
		d.apps = append(d.apps, a)
		rec, err := d.srv.Table().Get(a.Name)
		if err != nil {
			tb.Fatal(err)
		}
		if rec.ARMThr == threshold.Never || rec.FPGAThr == threshold.Never {
			tb.Fatalf("app %s: a Never threshold keeps its scan off", a.Name)
		}
		if busy {
			p.deciding[entry] = max(p.deciding[entry], rec.ARMThr+1, rec.FPGAThr+1)
		}
	}
	// One pass over the mix builds the lazily created transfer rows and
	// links, so what follows is the steady state.
	for i := range d.apps {
		d.decide(tb, i)
	}
	return d
}

// TestPlatformDecideDoesNotAllocate is TestDecideHotPathDoesNotAllocate
// on real xrt devices: the fake device there cannot see an allocation
// inside the card model's kernel lookup.
func TestPlatformDecideDoesNotAllocate(t *testing.T) {
	for _, class := range []string{"critical", "batch"} {
		d := newPlatformDecider(t, class, true)
		i := 0
		if avg := testing.AllocsPerRun(200, func() {
			d.decide(t, i)
			i++
		}); avg != 0 {
			t.Fatalf("%s DecideClass allocates %.1f per call, want 0", class, avg)
		}
		// Above every threshold no request stays on x86, so every
		// decision above reached the placement scans.
		if st := d.srv.Stats(); st.ToX86 != 0 {
			t.Fatalf("%s: %d of %d decisions stayed on x86, so the scans went uncovered", class, st.ToX86, st.Requests)
		}
	}
}
