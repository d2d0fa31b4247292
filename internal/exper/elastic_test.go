package exper

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/elastic"
	"xartrek/internal/faults"
)

// esec builds an elastic.Duration from seconds.
func esec(n int) elastic.Duration { return elastic.Duration(time.Duration(n) * time.Second) }

// steadyTrace is a deterministic constant-rate arrival trace over
// [start, end) — steadier per-epoch load than a Poisson draw, which the
// autoscaler threshold tests rely on.
func steadyTrace(start, end, gap time.Duration) []time.Duration {
	var out []time.Duration
	for t := start; t < end; t += gap {
		out = append(out, t)
	}
	return out
}

// kneeTestSpec is the bracketing window the knee tests share: on
// rack4 (2 x86, 2 ARM, 1 FPGA) under xar-trek, an 8s p99 SLO passes
// at 2 req/s and fails at 16 req/s.
func kneeTestSpec() *elastic.KneeSpec {
	return &elastic.KneeSpec{
		RateLo: 2, RateHi: 16,
		SLO: elastic.SLOSpec{P99: esec(8)},
	}
}

func kneeTestTopology() *TopologySpec {
	return &TopologySpec{Kind: "scale-out", Name: "rack4", X86: 2, ARM: 2, FPGAs: 1}
}

func TestZeroElasticSpecByteIdenticalToBaseline(t *testing.T) {
	arts := testArtifacts(t)
	base := ServingConfig{
		Topo: cluster.ScaleOutTopology("rack8", 4, 4, 2), Mode: ModeXarTrek,
		RatePerSec: 8, Duration: 20 * time.Second, Seed: 2021,
	}
	plain, err := RunServing(arts, base)
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.Admission = &elastic.AdmissionSpec{}
	zero.Autoscaler = &elastic.AutoscalerSpec{}
	withZero, err := RunServing(arts, zero)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withZero) {
		t.Fatalf("zero elastic specs changed the run:\n%+v\n%+v", plain, withZero)
	}
	a, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(withZero)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("zero-spec JSON diverged from baseline:\n%s\n%s", a, b)
	}
	for _, field := range []string{"Overload", "Shed", "Degraded", "Goodput", "Elastic"} {
		if strings.Contains(string(a), field) {
			t.Fatalf("elastic-free JSON mentions %s: %s", field, a)
		}
	}
}

func TestAdmissionPolicies(t *testing.T) {
	arts := testArtifacts(t)
	base := ServingConfig{
		Topo: cluster.ScaleOutTopology("rack4", 2, 2, 1), Mode: ModeXarTrek,
		RatePerSec: 16, Duration: 20 * time.Second, Seed: 2021,
	}
	t.Run("drop", func(t *testing.T) {
		cfg := base
		cfg.Admission = &elastic.AdmissionSpec{QueueCap: 6, Policy: elastic.Drop}
		r, err := RunServing(arts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Overload != elastic.Drop {
			t.Fatalf("Overload = %q, want %q", r.Overload, elastic.Drop)
		}
		if r.Shed == 0 {
			t.Fatal("over-cap run shed nothing")
		}
		if r.Degraded != 0 {
			t.Fatalf("drop policy degraded %d requests", r.Degraded)
		}
		if r.Completed+r.Shed > r.Offered {
			t.Fatalf("completed %d + shed %d > offered %d", r.Completed, r.Shed, r.Offered)
		}
		if r.GoodputPerSec != r.ThroughputPerSec {
			t.Fatalf("drop goodput %v != throughput %v (nothing is degraded)",
				r.GoodputPerSec, r.ThroughputPerSec)
		}
	})
	t.Run("reject-fast", func(t *testing.T) {
		cfg := base
		cfg.Admission = &elastic.AdmissionSpec{QueueCap: 6, Policy: elastic.RejectFast}
		r, err := RunServing(arts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Overload != elastic.RejectFast || r.Shed == 0 {
			t.Fatalf("Overload = %q shed = %d, want reject-fast shedding", r.Overload, r.Shed)
		}
	})
	t.Run("degrade-to-cpu", func(t *testing.T) {
		cfg := base
		cfg.Admission = &elastic.AdmissionSpec{QueueCap: 6, Policy: elastic.DegradeToCPU}
		r, err := RunServing(arts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.Overload != elastic.DegradeToCPU {
			t.Fatalf("Overload = %q, want %q", r.Overload, elastic.DegradeToCPU)
		}
		if r.Shed != 0 {
			t.Fatalf("degrade-to-cpu shed %d requests instead of admitting them", r.Shed)
		}
		if r.Degraded == 0 {
			t.Fatal("over-cap run degraded nothing")
		}
		// Degraded completions count toward throughput but not goodput.
		if r.GoodputPerSec >= r.ThroughputPerSec {
			t.Fatalf("goodput %v not below throughput %v despite degraded service",
				r.GoodputPerSec, r.ThroughputPerSec)
		}
	})
}

// TestSheddingGoodputAtTwiceKnee pins the overload-protection
// acceptance bar: at twice the knee rate, enabling admission control
// does not cost goodput (the entry caps only bind deeper into
// overload, where they trade completions for bounded queues).
func TestSheddingGoodputAtTwiceKnee(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "knee", Cells: []CellSpec{{
		Name: "knee", Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
		Duration: Duration(20 * time.Second), Seeds: []int64{2021}, Knee: kneeTestSpec(),
	}}}
	rep, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	knee := rep.Cells[0].Knee.KneeRatePerSec
	if knee <= kneeTestSpec().RateLo || knee >= kneeTestSpec().RateHi {
		t.Fatalf("knee %v outside the bracketing window", knee)
	}
	base := ServingConfig{
		Topo: cluster.ScaleOutTopology("rack4", 2, 2, 1), Mode: ModeXarTrek,
		RatePerSec: 2 * knee, Duration: 20 * time.Second, Seed: 2021,
	}
	plain, err := RunServing(arts, base)
	if err != nil {
		t.Fatal(err)
	}
	shedding := base
	shedding.Admission = &elastic.AdmissionSpec{QueueCap: 8, Policy: elastic.Drop}
	r, err := RunServing(arts, shedding)
	if err != nil {
		t.Fatal(err)
	}
	if r.GoodputPerSec < plain.ThroughputPerSec {
		t.Fatalf("goodput with shedding %v < goodput without %v at 2x knee (%v req/s)",
			r.GoodputPerSec, plain.ThroughputPerSec, 2*knee)
	}
	// Deeper into overload the same cap must actually shed.
	deep := shedding
	deep.RatePerSec = 4 * knee
	r, err = RunServing(arts, deep)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed == 0 {
		t.Fatalf("cap %d shed nothing at 4x knee", 8)
	}
}

func TestKneeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "knee-det", Cells: []CellSpec{{
		Name: "knee", Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
		Duration: Duration(20 * time.Second), Seeds: []int64{2021}, Knee: kneeTestSpec(),
	}}}
	var par1, par8 *Report
	withGOMAXPROCS(1, func() {
		var err error
		par1, err = RunCampaign(arts, spec, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	withGOMAXPROCS(8, func() {
		var err error
		par8, err = RunCampaign(arts, spec, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	a, err := json.Marshal(par1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(par8)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("knee campaign not byte-identical across GOMAXPROCS")
	}
	k := par1.Cells[0].Knee
	if k.KneeRatePerSec <= 0 || len(k.Probes) < 3 || k.AtKnee == nil {
		t.Fatalf("degenerate knee result: %+v", k)
	}
}

func TestKneeUnderChurnNotAboveFaultFree(t *testing.T) {
	arts := testArtifacts(t)
	spec := CampaignSpec{Name: "knee-churn", Cells: []CellSpec{
		{Name: "free", Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(20 * time.Second), Seeds: []int64{2021}, Knee: kneeTestSpec()},
		{Name: "churn", Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(20 * time.Second), Seeds: []int64{2021}, Knee: kneeTestSpec(),
			Faults: &faults.Spec{Churn: []faults.Churn{
				// Churn the non-host entry node: its crashes disrupt
				// resident requests, so the churn knee genuinely prices
				// the failures in.
				{Kind: "node", Targets: []string{"x86-01"}, MTBF: fsec(6), MTTR: fsec(2)},
			}}},
	}}
	rep, err := RunCampaign(arts, spec, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	free := rep.Cells[0].Knee.KneeRatePerSec
	churn := rep.Cells[1].Knee.KneeRatePerSec
	if churn <= 0 || free <= 0 {
		t.Fatalf("degenerate knees: free %v churn %v", free, churn)
	}
	if churn > free {
		t.Fatalf("knee under churn %v exceeds fault-free knee %v", churn, free)
	}
	if m := rep.Cells[1].Metrics["knee_rate_per_sec"]; m != churn {
		t.Fatalf("knee metric %v != report %v", m, churn)
	}
}

func TestKneeUnbracketedError(t *testing.T) {
	arts := testArtifacts(t)
	run := func(lo, hi float64) error {
		spec := CampaignSpec{Cells: []CellSpec{{
			Name: "knee", Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(20 * time.Second), Seeds: []int64{2021},
			Knee: &elastic.KneeSpec{RateLo: lo, RateHi: hi, SLO: elastic.SLOSpec{P99: esec(8)}},
		}}}
		_, err := RunCampaign(arts, spec, RunOpts{})
		return err
	}
	// Both rates pass the SLO: the knee lies above the window.
	if err := run(2, 3); !errors.Is(err, elastic.ErrUnbracketed) {
		t.Fatalf("hi-passes window: err = %v, want ErrUnbracketed", err)
	}
	// Both rates fail it: the knee lies below the window.
	if err := run(16, 32); !errors.Is(err, elastic.ErrUnbracketed) {
		t.Fatalf("lo-fails window: err = %v, want ErrUnbracketed", err)
	}
}

func TestAutoscalerScalesUpUnderSustainedLoad(t *testing.T) {
	arts := testArtifacts(t)
	r, err := RunServing(arts, ServingConfig{
		Topo: cluster.ScaleOutTopology("rack4x", 4, 0, 0), Mode: ModeVanillaX86,
		RatePerSec: 30, Duration: 20 * time.Second, Seed: 2021,
		Autoscaler: &elastic.AutoscalerSpec{
			Policy: elastic.ScaleTargetUtilization, Epoch: esec(1),
			MinNodes: 1, MaxNodes: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := r.Elastic
	if e == nil {
		t.Fatal("autoscaled run has no elastic report")
	}
	if e.InitialSize != 1 || e.FinalSize != 4 || e.MaxSize != 4 {
		t.Fatalf("sustained overload did not grow the fleet to max: %+v", e)
	}
	if e.ScaleUps < 3 || e.ScaleDowns != 0 {
		t.Fatalf("ups %d downs %d, want >=3 ups and no downs", e.ScaleUps, e.ScaleDowns)
	}
	if e.Epochs != 19 {
		t.Fatalf("epochs %d, want 19 (ticks at 1s..19s strictly inside the horizon)", e.Epochs)
	}
	if e.MeanSize <= 1 || e.MeanSize > 4 {
		t.Fatalf("mean size %v outside (1, 4]", e.MeanSize)
	}
	// Overloaded the whole run: the recovery clock never stops.
	if time.Duration(e.TimeToRecover) != 19*time.Second {
		t.Fatalf("time to recover %v, want the full sampled horizon", time.Duration(e.TimeToRecover))
	}
	if len(e.Events) != e.ScaleUps {
		t.Fatalf("%d events for %d scale-ups", len(e.Events), e.ScaleUps)
	}
}

// burstAutoscalerConfig is a 5 s burst on a 4-node entry fleet that
// the autoscaler grows from one node and drains back afterwards.
func burstAutoscalerConfig() ServingConfig {
	return ServingConfig{
		Topo: cluster.ScaleOutTopology("rack4x", 4, 0, 0), Mode: ModeVanillaX86,
		Trace:    steadyTrace(0, 5*time.Second, 25*time.Millisecond),
		Duration: 25 * time.Second, Seed: 2021,
		Autoscaler: &elastic.AutoscalerSpec{
			Policy: elastic.ScaleTargetUtilization, Epoch: esec(1),
			MinNodes: 1, MaxNodes: 4,
		},
	}
}

func TestAutoscalerBurstScaleUpDownAndRecovery(t *testing.T) {
	arts := testArtifacts(t)
	r, err := RunServing(arts, burstAutoscalerConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := r.Elastic
	if e == nil {
		t.Fatal("no elastic report")
	}
	if e.ScaleUps == 0 || e.ScaleDowns == 0 {
		t.Fatalf("burst run: ups %d downs %d, want both", e.ScaleUps, e.ScaleDowns)
	}
	if e.FinalSize != 1 {
		t.Fatalf("fleet did not drain back to min after the burst: final %d", e.FinalSize)
	}
	ttr := time.Duration(e.TimeToRecover)
	if ttr <= 0 || ttr >= 25*time.Second {
		t.Fatalf("time to recover %v, want within (0, horizon)", ttr)
	}
	// Events are time-ordered, ups strictly before downs for one burst.
	var lastUp, firstDown time.Duration = 0, 1 << 62
	for _, ev := range e.Events {
		if ev.Delta > 0 && time.Duration(ev.At) > lastUp {
			lastUp = time.Duration(ev.At)
		}
		if ev.Delta < 0 && time.Duration(ev.At) < firstDown {
			firstDown = time.Duration(ev.At)
		}
	}
	if lastUp >= firstDown {
		t.Fatalf("last scale-up %v not before first scale-down %v", lastUp, firstDown)
	}
}

// TestAutoscalerEpochOnFaultTimestampTieBreak pins the same-instant
// ordering between fault events and autoscaler samples: a node crash
// at exactly an epoch boundary is applied first, so that epoch's
// sample already sees the shrunken fleet (capacity drops, measured
// utilization jumps by n/(n-1)) and reacts one epoch earlier than a
// crash one nanosecond later would allow.
func TestAutoscalerEpochOnFaultTimestampTieBreak(t *testing.T) {
	arts := testArtifacts(t)
	run := func(crashAt time.Duration) *elastic.Result {
		t.Helper()
		r, err := RunServing(arts, ServingConfig{
			Topo: cluster.ScaleOutTopology("rack5x", 5, 0, 0), Mode: ModeVanillaX86,
			Trace:    steadyTrace(0, 8*time.Second, 50*time.Millisecond),
			Duration: 8 * time.Second, Seed: 2021,
			Faults: &faults.Spec{Events: []faults.Event{
				{At: faults.Duration(crashAt), Kind: faults.NodeDown, Node: "x86-02"},
			}},
			Autoscaler: &elastic.AutoscalerSpec{
				Policy: elastic.ScaleTargetUtilization, Epoch: esec(1),
				// Between the pre-crash utilization at 3s (~1.37) and the
				// post-crash jump (~1.83 = 4/3 of it): only a sample that
				// already observes the crash crosses the threshold.
				HighUtil: 1.6, LowUtil: 0,
				MinNodes: 4, MaxNodes: 5,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Elastic == nil || len(r.Elastic.Events) == 0 {
			t.Fatalf("crash at %v produced no scale events", crashAt)
		}
		return r.Elastic
	}
	atBoundary := run(3 * time.Second)
	afterBoundary := run(3*time.Second + time.Nanosecond)
	if got := time.Duration(atBoundary.Events[0].At); got != 3*time.Second {
		t.Fatalf("crash at the epoch boundary: first scale event at %v, want 3s (fault applies before the sample)", got)
	}
	if got := time.Duration(afterBoundary.Events[0].At); got != 4*time.Second {
		t.Fatalf("crash 1ns after the boundary: first scale event at %v, want 4s (the 3s sample predates the fault)", got)
	}
}

// TestElasticDrainExcludesPlacement pins the entry-eligibility gate the
// serving front end and fault-retry re-placement share: an elastically
// drained node takes no new placements even when it is the least
// loaded, and takes them again after rejoining.
func TestElasticDrainExcludesPlacement(t *testing.T) {
	arts := testArtifacts(t)
	p, err := NewPlatformTopo(arts, cluster.ScaleOutTopology("rack2x", 2, 0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	host := p.Cluster.X86
	other := p.Cluster.NodesOfArch(host.Arch)[1]
	// Load the host so the empty non-host node is the natural pick.
	p.LaunchAppOnClass(host, arts.Apps[0], ModeVanillaX86, "", 0, nil)
	p.Sim.RunUntil(time.Millisecond)
	if got := p.leastLoadedX86(); got != other {
		t.Fatalf("baseline placement picked %s, want the idle node %s", got.Name, other.Name)
	}
	p.off[other.Index] |= offParked
	if p.entryOK(p.slot[other.Index]) {
		t.Fatal("drained node still entry-eligible")
	}
	if got := p.leastLoadedX86(); got != host {
		t.Fatalf("placement picked drained node %s", got.Name)
	}
	p.off[other.Index] &^= offParked
	if got := p.leastLoadedX86(); got != other {
		t.Fatalf("rejoined node not placed to: got %s", got.Name)
	}
}

// TestUndrainStaleQueueState pins the epoch sampler's bookkeeping for
// a node that drains while still holding resident work and later
// rejoins: its job-seconds are snapshotted every epoch even while
// parked, so the rejoin epoch sees only that epoch's work — not the
// whole drained period's backlog dumped into one sample.
func TestUndrainStaleQueueState(t *testing.T) {
	arts := testArtifacts(t)
	p, err := NewPlatformTopo(arts, cluster.ScaleOutTopology("rack2x", 2, 0, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Epoch of 1s but a 500ms horizon: no ticks self-schedule, the test
	// drives sample() by hand at exact instants.
	rt, err := newElasticRuntime(p, nil, &elastic.AutoscalerSpec{
		Policy: elastic.ScaleTargetUtilization, Epoch: esec(1),
		HighUtil: 99, LowUtil: 0, MinNodes: 2, MaxNodes: 2,
	}, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	p.elastic = rt
	var utils []float64
	debugElasticSample = func(now time.Duration, smp elastic.Sample) {
		utils = append(utils, smp.Utilization)
	}
	defer func() { debugElasticSample = nil }()
	// Pile long-running work onto the non-host node: 24 jobs over 6
	// cores keep a constant resident set well past the sampled window.
	other := p.Cluster.NodesOfArch(p.Cluster.X86.Arch)[1]
	for i := 0; i < 24; i++ {
		p.LaunchAppOnClass(other, arts.Apps[0], ModeVanillaX86, "", 0, nil)
	}
	p.Sim.RunUntil(1 * time.Second)
	rt.sample(1 * time.Second)
	p.off[other.Index] |= offParked // drain with resident work
	p.Sim.RunUntil(2 * time.Second)
	rt.sample(2 * time.Second)
	p.Sim.RunUntil(3 * time.Second)
	rt.sample(3 * time.Second)
	p.off[other.Index] &^= offParked // rejoin
	p.Sim.RunUntil(4 * time.Second)
	rt.sample(4 * time.Second)
	if len(utils) != 4 {
		t.Fatalf("captured %d samples, want 4", len(utils))
	}
	if utils[0] <= 0 {
		t.Fatal("no work observed in the first epoch")
	}
	// The resident set is constant across epochs 3 and 4, so the rejoin
	// epoch's utilization must match the drained epoch's — a stale
	// snapshot would roughly triple it (epochs 2-4 of backlog at once).
	if utils[3] > utils[2]*1.05 {
		t.Fatalf("rejoin epoch utilization %v vs drained epoch %v: stale queue state dumped into one sample",
			utils[3], utils[2])
	}
}

// drainRaceSpec is a one-cell campaign whose node crash lands while the
// autoscaler drains the fleet after a burst.
func drainRaceSpec() CampaignSpec {
	burst := steadyTrace(0, 5*time.Second, 25*time.Millisecond)
	trace := make([]Duration, len(burst))
	for i, d := range burst {
		trace[i] = Duration(d)
	}
	return CampaignSpec{Name: "drain-race", Cells: []CellSpec{{
		Name: "race", Kind: KindServing,
		Topology: &TopologySpec{Kind: "scale-out", Name: "rack4x", X86: 4},
		Mode:     "vanilla-x86",
		Trace:    trace,
		Duration: Duration(25 * time.Second), Seeds: []int64{2021},
		Faults: &faults.Spec{Events: []faults.Event{
			// Crash a mid-index node just before the post-burst
			// scale-down drains the high-index ones: the crash's
			// retries re-place against a shrinking eligible set.
			{At: faults.Duration(14500 * time.Millisecond), Kind: faults.NodeDown, Node: "x86-02"},
		}},
		Autoscaler: &elastic.AutoscalerSpec{
			Policy: elastic.ScaleTargetUtilization, Epoch: esec(1),
			HighUtil: 3.0, LowUtil: 2.0, MinNodes: 1, MaxNodes: 4,
		},
	}}}
}

// TestDrainRacesInFlightRetries runs churn and the autoscaler
// together: a node crash disrupts resident requests whose retries are
// in flight while the autoscaler is draining the fleet, so retry
// re-placement races elastic drains. The run must stay deterministic
// across GOMAXPROCS and actually exercise both machineries.
func TestDrainRacesInFlightRetries(t *testing.T) {
	arts := testArtifacts(t)
	spec := drainRaceSpec()
	var par1, par8 *Report
	withGOMAXPROCS(1, func() {
		var err error
		par1, err = RunCampaign(arts, spec, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	withGOMAXPROCS(8, func() {
		var err error
		par8, err = RunCampaign(arts, spec, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
	})
	a, _ := json.Marshal(par1)
	b, _ := json.Marshal(par8)
	if string(a) != string(b) {
		t.Fatal("drain-race campaign not byte-identical across GOMAXPROCS")
	}
	r := par1.Cells[0].Serving
	if r.Faults == nil || r.Faults.RequestsDisrupted == 0 {
		t.Fatalf("crash disrupted nothing: %+v", r.Faults)
	}
	if r.Elastic == nil || r.Elastic.ScaleDowns == 0 {
		t.Fatalf("no scale-downs raced the retries: %+v", r.Elastic)
	}
	if r.Completed == 0 {
		t.Fatal("nothing completed")
	}
}

func TestElasticCampaignValidation(t *testing.T) {
	cases := []struct {
		name string
		cell CellSpec
		want string
	}{
		{"knee-with-rate", CellSpec{Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(time.Second), Rate: 4, Knee: kneeTestSpec()},
			"does not take rate"},
		{"knee-with-trace", CellSpec{Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(time.Second), TraceFile: "x.trace", Knee: kneeTestSpec()},
			"does not take a trace"},
		{"knee-without-spec", CellSpec{Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(time.Second)},
			"knee spec"},
		{"knee-on-serving", CellSpec{Kind: KindServing, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(time.Second), Rate: 4, Knee: kneeTestSpec()},
			"does not take a knee spec"},
		{"admission-on-set", CellSpec{Kind: KindSet, Mode: "xar-trek",
			Admission: &elastic.AdmissionSpec{QueueCap: 4}},
			"does not take admission"},
		{"admission-without-cap", CellSpec{Kind: KindServing, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(time.Second), Rate: 4,
			Admission: &elastic.AdmissionSpec{Policy: elastic.Drop}},
			"positive queue_cap"},
		{"admission-bad-policy", CellSpec{Kind: KindServing, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(time.Second), Rate: 4,
			Admission: &elastic.AdmissionSpec{QueueCap: 4, Policy: "nope"}},
			"unknown admission policy"},
		{"autoscaler-bad-policy", CellSpec{Kind: KindServing, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(time.Second), Rate: 4,
			Autoscaler: &elastic.AutoscalerSpec{Policy: "nope", Epoch: esec(1)}},
			"unknown autoscaler policy"},
		{"knee-bad-window", CellSpec{Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(time.Second),
			Knee:     &elastic.KneeSpec{RateLo: 8, RateHi: 4, SLO: elastic.SLOSpec{P99: esec(1)}}},
			"must exceed"},
		{"knee-empty-slo", CellSpec{Kind: KindKnee, Topology: kneeTestTopology(), Mode: "xar-trek",
			Duration: Duration(time.Second),
			Knee:     &elastic.KneeSpec{RateLo: 2, RateHi: 4}},
			"slo needs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := CampaignSpec{Cells: []CellSpec{tc.cell}}
			_, err := spec.Expand()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestKneeCampaignFileAcceptance(t *testing.T) {
	arts := testArtifacts(t)
	path := filepath.Join("..", "..", "examples", "campaigns", "knee.json")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spec, err := ParseCampaign(f)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCampaign(arts, *spec, RunOpts{BaseDir: filepath.Dir(path)})
	if err != nil {
		t.Fatal(err)
	}
	knees := map[string]float64{}
	for _, c := range rep.Cells {
		if c.Knee == nil {
			t.Fatalf("cell %d has no knee result", c.Index)
		}
		if c.Knee.KneeRatePerSec <= 0 {
			t.Fatalf("cell %d: degenerate knee %v", c.Index, c.Knee.KneeRatePerSec)
		}
		if c.Metrics["knee_rate_per_sec"] != c.Knee.KneeRatePerSec {
			t.Fatalf("cell %d: knee metric diverged", c.Index)
		}
		knees[c.Name] = c.Knee.KneeRatePerSec
	}
	if knees["knee-churn"] > knees["knee-free"] {
		t.Fatalf("knee under churn %v exceeds fault-free knee %v",
			knees["knee-churn"], knees["knee-free"])
	}
}
