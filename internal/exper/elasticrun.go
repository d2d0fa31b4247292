package exper

import (
	"fmt"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/elastic"
	"xartrek/internal/isa"
)

// elasticRuntime executes one cell's overload-control plan against a
// platform: per-entry-node admission control and/or the autoscaler
// control loop, which parks and unparks entry nodes in the platform's
// fleet health. Like the fault runtime it belongs to one platform (and
// one simulator), so no locking is needed — campaign parallelism is
// across cells, never within one.
type elasticRuntime struct {
	p         *Platform
	admission *elastic.AdmissionSpec
	scaler    *elastic.AutoscalerSpec
	ctrl      *elastic.Controller
	epoch     time.Duration
	horizon   time.Duration

	// entries is the x86 entry fleet in cluster-node order; the
	// scheduler host is always active, the rest join and drain by
	// autoscaler decision (lowest index joins first, highest drains
	// first — deterministic). A drained node is parked (offParked):
	// resident work keeps running, but the entry pick excludes it from
	// new placements, arrivals and retry re-placement alike.
	entries []*cluster.Node
	// prevJob snapshots each entry's PSServer.JobSeconds at the last
	// epoch, for the utilization delta. Parked nodes are snapshotted
	// too, so a node that drains with resident work and later rejoins
	// does not dump its backlog's job-seconds into one epoch.
	prevJob []float64

	// Admission counters.
	shed         int
	degraded     int
	degradedDone int
}

// newElasticRuntime validates the specs, builds the runtime and — when
// the autoscaler is enabled — applies the initial fleet size and
// schedules the epoch sampler. Must be installed after any fault
// runtime: fault events are scheduled at construction, so an event at
// exactly an epoch boundary fires before that epoch's sample (the
// simulator breaks same-instant ties by scheduling order), pinning the
// sample to observe the post-fault fleet.
func newElasticRuntime(p *Platform, admission *elastic.AdmissionSpec, scaler *elastic.AutoscalerSpec, horizon time.Duration) (*elasticRuntime, error) {
	if err := admission.Validate(); err != nil {
		return nil, err
	}
	if err := scaler.Validate(); err != nil {
		return nil, err
	}
	rt := &elasticRuntime{
		p:       p,
		horizon: horizon,
		entries: p.Cluster.NodesOfArch(isa.X86_64),
		prevJob: make([]float64, len(p.Cluster.Nodes)),
	}
	if admission.Enabled() {
		rt.admission = admission
	}
	if !scaler.Enabled() {
		return rt, nil
	}
	rt.scaler = scaler
	rt.epoch = time.Duration(scaler.Epoch)
	rt.ctrl = elastic.NewController(scaler, len(rt.entries))
	// Drain everything beyond the initial size: the host plus the
	// lowest-indexed entry nodes up to MinNodes stay active, the rest
	// join by decision, not schedule.
	active := rt.ctrl.Size()
	for _, n := range rt.entries {
		if n == p.Cluster.X86 {
			continue
		}
		if active > 1 {
			active--
			continue
		}
		p.off[n.Index] |= offParked
	}
	var tick func()
	tick = func() {
		rt.sample(p.Sim.Now())
		if next := p.Sim.Now() + rt.epoch; next < horizon {
			p.Sim.After(rt.epoch, tick)
		}
	}
	if rt.epoch < horizon {
		p.Sim.After(rt.epoch, tick)
	}
	return rt, nil
}

// debugElasticSample, when set (tests only), observes every epoch
// sample before the controller judges it — the elastic analogue of
// testLatencySink.
var debugElasticSample func(now time.Duration, smp elastic.Sample)

// sample takes one epoch observation, hands it to the controller and
// applies the decided joins/drains to the entry fleet.
func (rt *elasticRuntime) sample(now time.Duration) {
	off := rt.p.off
	var work, cores, queue float64
	nodes := 0
	for _, n := range rt.entries {
		js := n.Pool.JobSeconds()
		delta := js - rt.prevJob[n.Index]
		rt.prevJob[n.Index] = js
		// Work done anywhere in the entry fleet counts — a crashed
		// node ran real jobs until its crash — while capacity counts
		// only nodes that can serve right now (not parked or crashed;
		// a fault-drained node's capacity still serves resident work),
		// so losing a node mid-epoch shows up as a utilization jump at
		// the next sample.
		work += delta
		if off[n.Index]&(offParked|offCrashed) != 0 {
			continue
		}
		nodes++
		cores += float64(n.Cores)
		queue += float64(rt.p.nodeLoad(n))
	}
	smp := elastic.Sample{}
	if cores > 0 {
		smp.Utilization = work / (cores * rt.epoch.Seconds())
	}
	if nodes > 0 {
		smp.QueueDepth = queue / float64(nodes)
	}
	if debugElasticSample != nil {
		debugElasticSample(now, smp)
	}
	delta := rt.ctrl.Observe(now, smp)
	switch {
	case delta > 0:
		// Join the lowest-indexed drained nodes first.
		for _, n := range rt.entries {
			if delta == 0 {
				break
			}
			if off[n.Index]&offParked != 0 {
				off[n.Index] &^= offParked
				delta--
			}
		}
	case delta < 0:
		// Drain the highest-indexed active nodes first; the host is
		// never drained (the controller's floor of 1 guarantees a
		// candidate exists among the others).
		for i := len(rt.entries) - 1; i >= 0 && delta < 0; i-- {
			n := rt.entries[i]
			if n == rt.p.Cluster.X86 || off[n.Index]&offParked != 0 {
				continue
			}
			off[n.Index] |= offParked
			delta++
		}
	}
}

// overCap reports whether admitting one more request on entry would
// exceed the admission queue cap. The entry index's load counts the
// same-instant placements the injector has already made on the node.
func (rt *elasticRuntime) overCap(entry *cluster.Node) bool {
	if rt == nil || rt.admission == nil {
		return false
	}
	return rt.p.entryLoads.Load(rt.p.slot[entry.Index]) >= rt.admission.QueueCap
}

// refuse handles one over-cap arrival under the drop and reject-fast
// policies, returning true when the request was shed. Under
// degrade-to-cpu it returns false: the caller admits the request at
// the degraded service class.
func (rt *elasticRuntime) refuse(entry *cluster.Node) bool {
	switch rt.admission.PolicyName() {
	case elastic.DegradeToCPU:
		rt.degraded++
		return false
	case elastic.RejectFast:
		// Synthesising the rejection burns entry CPU — under overload
		// the error path is itself load.
		rt.p.entryExec(nil, entry, rt.admission.Cost(), nil)
	}
	rt.shed++
	return true
}

// countDegraded wraps the completion callback of a request admitted at
// the degraded service class, so its completion counts toward
// degradedDone.
func (rt *elasticRuntime) countDegraded(done func(RunResult)) func(RunResult) {
	return func(run RunResult) {
		rt.degradedDone++
		if done != nil {
			done(run)
		}
	}
}

// finalize folds the runtime's counters into the serving result.
func (rt *elasticRuntime) finalize(res *ServingResult, horizon time.Duration) {
	if rt.admission != nil {
		res.Overload = rt.admission.PolicyName()
		res.Shed = rt.shed
		res.Degraded = rt.degraded
		res.GoodputPerSec = float64(res.Completed-rt.degradedDone) / horizon.Seconds()
	}
	if rt.ctrl != nil {
		res.Elastic = rt.ctrl.Finalize(horizon)
	}
}

// elasticMetrics folds the overload and autoscaler reports into a
// serving cell's flat metrics map (cells without elastic specs add
// nothing, keeping goldens byte-identical).
func elasticMetrics(m map[string]float64, r ServingResult) {
	if r.Overload != "" {
		m["shed"] = float64(r.Shed)
		m["degraded"] = float64(r.Degraded)
		m["goodput_per_sec"] = r.GoodputPerSec
		if r.Offered > 0 {
			m["shed_fraction"] = float64(r.Shed) / float64(r.Offered)
		} else {
			m["shed_fraction"] = 0
		}
	}
	if e := r.Elastic; e != nil {
		m["fleet_scale_ups"] = float64(e.ScaleUps)
		m["fleet_scale_downs"] = float64(e.ScaleDowns)
		m["fleet_mean_size"] = e.MeanSize
		m["fleet_max_size"] = float64(e.MaxSize)
		m["fleet_final_size"] = float64(e.FinalSize)
		m["time_to_recover_ms"] = msFloat(time.Duration(e.TimeToRecover))
	}
}

// kneeMetrics flattens a knee result: the serving metrics of the
// at-knee run, overlaid with the search's headline numbers.
func kneeMetrics(r KneeResult) map[string]float64 {
	var m map[string]float64
	if r.AtKnee != nil {
		m = servingMetrics(*r.AtKnee)
	} else {
		m = make(map[string]float64)
	}
	m["knee_rate_per_sec"] = r.KneeRatePerSec
	m["knee_probes"] = float64(len(r.Probes))
	return m
}

// validateElasticCell checks a cell's elastic knobs against its kind
// (called from CellSpec.validate).
func validateElasticCell(c *CellSpec) error {
	if err := c.Admission.Validate(); err != nil {
		return err
	}
	if err := c.Autoscaler.Validate(); err != nil {
		return err
	}
	if !servingClass(c.Kind) && (c.Admission != nil || c.Autoscaler != nil) {
		return fmt.Errorf("%s cell does not take admission/autoscaler", c.Kind)
	}
	if c.Kind != KindKnee && c.Knee != nil {
		return fmt.Errorf("%s cell does not take a knee spec", c.Kind)
	}
	return nil
}
