package exper

import (
	"fmt"
	"time"

	"xartrek/internal/tenancy"
	"xartrek/internal/workloads"
)

// Multi-tenant serving (DESIGN.md §14): a serving cell with a
// CellSpec.Workload runs the tenancy package's merged cohort stream
// instead of the anonymous Poisson source, carries each request's SLO
// class through the engine into the scheduler's placement context, and
// keeps one latency digest per class so the cell reports per-class
// percentiles and SLO attainment alongside the aggregate numbers.

// TenancyResult is the per-class and per-cohort report of a
// workload-driven serving run.
type TenancyResult struct {
	// Classes reports each SLO class present in the workload, in
	// sorted class-name order.
	Classes []ClassResult
	// Cohorts reports each cohort in spec order.
	Cohorts []CohortResult
}

// ClassResult aggregates one SLO class across its cohorts.
type ClassResult struct {
	Class string
	// Offered counts the class's injected requests; Completed those
	// that finished within the horizon.
	Offered   int
	Completed int
	// P50, P95 and P99 are the class's completion-latency percentiles
	// under the cell's latency mode (exact or sketch-backed).
	P50, P95, P99 time.Duration
	// Deadlined marks a class whose cohorts carry latency deadlines
	// (the critical class); the two fields below only apply then.
	Deadlined bool `json:",omitempty"`
	// WithinDeadline counts completions at or under their cohort's
	// deadline.
	WithinDeadline int `json:",omitempty"`
	// Attainment is WithinDeadline over Offered: requests shed or
	// still in flight at the horizon count as violated, so attainment
	// reflects what clients observed, not just what finished.
	Attainment float64 `json:",omitempty"`
}

// CohortResult counts one cohort's traffic.
type CohortResult struct {
	ID        string
	Class     string
	Offered   int
	Completed int
}

// tenantRun is the per-run tenancy state the serving engine threads
// through injection and completion: each cohort's applications, class
// and deadline, one latency digest per class, per-cohort counters, and
// the pre-built per-cohort completion closures.
type tenantRun struct {
	spec     *tenancy.Spec
	apps     [][]*workloads.App // per cohort: its mix, or the shared pool
	classes  []string
	classOf  []string        // per cohort: its class name
	slot     []int           // per cohort: index into classes/digs
	deadline []time.Duration // per cohort: 0 for batch
	digs     []*latDigest    // per class
	within   []int           // per class: completions within deadline
	offered  []int           // per cohort: injected count, shed included
	complets []int           // per cohort: completed count
	done     []func(RunResult)
}

// tenantDigests is the per-class digest bundle a sharded sub-run hands
// the reducer, alongside its aggregate digest.
type tenantDigests struct {
	classes []string
	digs    []*latDigest
}

// newTenantRun builds the tenancy state of one workload-driven serving
// run; ServingConfig.source builds its arrival stream.
func newTenantRun(cfg *ServingConfig, pool []*workloads.App, sketch bool) (*tenantRun, error) {
	spec := cfg.Workload
	n := len(spec.Cohorts)
	t := &tenantRun{
		spec:     spec,
		apps:     make([][]*workloads.App, n),
		classes:  spec.Classes(),
		classOf:  make([]string, n),
		slot:     make([]int, n),
		deadline: make([]time.Duration, n),
		done:     make([]func(RunResult), n),
		offered:  make([]int, n),
		complets: make([]int, n),
	}
	classSlot := make(map[string]int, len(t.classes))
	for s, class := range t.classes {
		classSlot[class] = s
	}
	t.digs = make([]*latDigest, len(t.classes))
	t.within = make([]int, len(t.classes))
	for s := range t.digs {
		t.digs[s] = newLatDigest(sketch)
	}
	byName := make(map[string]*workloads.App, len(pool))
	for _, app := range pool {
		byName[app.Name] = app
	}
	for i := range spec.Cohorts {
		c := &spec.Cohorts[i]
		t.classOf[i] = c.Class
		t.slot[i] = classSlot[c.Class]
		t.deadline[i] = time.Duration(c.Deadline)
		if len(c.Apps) == 0 {
			t.apps[i] = pool
			continue
		}
		mix := make([]*workloads.App, len(c.Apps))
		for j, share := range c.Apps {
			app, ok := byName[share.Name]
			if !ok {
				return nil, fmt.Errorf("exper: serving %q: workload cohort %q: unknown application %q", cfg.Name, c.ID, share.Name)
			}
			mix[j] = app
		}
		t.apps[i] = mix
	}
	return t, nil
}

// bind builds the per-cohort completion closures over the run's shared
// complete function (aggregate digest, fault observation), adding the
// per-class digest and deadline accounting. Built once per run, not
// per request.
func (t *tenantRun) bind(complete func(RunResult)) {
	for i := range t.done {
		coh := i
		t.done[i] = func(run RunResult) {
			complete(run)
			t.observe(coh, run)
		}
	}
}

// observe records one cohort request's completion.
func (t *tenantRun) observe(coh int, run RunResult) {
	t.complets[coh]++
	s := t.slot[coh]
	el := run.Elapsed()
	t.digs[s].add(el)
	if d := t.deadline[coh]; d > 0 && el <= d {
		t.within[s]++
	}
}

// finalize seals the class digests and assembles the report.
func (t *tenantRun) finalize() *TenancyResult {
	res := &TenancyResult{
		Classes: make([]ClassResult, len(t.classes)),
		Cohorts: make([]CohortResult, len(t.spec.Cohorts)),
	}
	classOffered := make([]int, len(t.classes))
	deadlined := make([]bool, len(t.classes))
	for i := range t.spec.Cohorts {
		c := &t.spec.Cohorts[i]
		s := t.slot[i]
		classOffered[s] += t.offered[i]
		if t.deadline[i] > 0 {
			deadlined[s] = true
		}
		res.Cohorts[i] = CohortResult{ID: c.ID, Class: c.Class, Offered: t.offered[i], Completed: t.complets[i]}
	}
	for s, class := range t.classes {
		d := t.digs[s]
		d.seal()
		cr := ClassResult{
			Class:     class,
			Offered:   classOffered[s],
			Completed: d.count(),
			P50:       d.percentile(50),
			P95:       d.percentile(95),
			P99:       d.percentile(99),
		}
		if deadlined[s] {
			cr.Deadlined = true
			cr.WithinDeadline = t.within[s]
			if classOffered[s] > 0 {
				cr.Attainment = float64(t.within[s]) / float64(classOffered[s])
			}
		}
		res.Classes[s] = cr
	}
	return res
}

// digests bundles the sealed per-class digests for the sharded
// reducer.
func (t *tenantRun) digests() *tenantDigests {
	return &tenantDigests{classes: t.classes, digs: t.digs}
}

// sinkExact emits the per-class exact distributions to the test sink
// under kind "slo:<class>" (the sharded differential tests' reference
// stream).
func (t *tenantRun) sinkExact(cell string) {
	for s, class := range t.classes {
		testLatencySink(cell, "slo:"+class, t.digs[s].exact)
	}
}

// mergeTenancy reduces per-shard tenancy reports: counts sum per class
// and cohort, the class digests merge in shard order, and percentiles
// and attainment are recomputed over the merged distribution. sink
// gates the merged per-class test sink (exact mode only).
func mergeTenancy(cell string, parts []ServingResult, digs []*tenantDigests, sketch, sink bool) *TenancyResult {
	if parts[0].Tenancy == nil {
		return nil
	}
	base := parts[0].Tenancy
	res := &TenancyResult{
		Classes: make([]ClassResult, len(base.Classes)),
		Cohorts: make([]CohortResult, len(base.Cohorts)),
	}
	for i, c := range base.Cohorts {
		res.Cohorts[i] = CohortResult{ID: c.ID, Class: c.Class}
	}
	for _, p := range parts {
		for i, c := range p.Tenancy.Cohorts {
			res.Cohorts[i].Offered += c.Offered
			res.Cohorts[i].Completed += c.Completed
		}
	}
	for s, c := range base.Classes {
		cr := ClassResult{Class: c.Class, Deadlined: c.Deadlined}
		for _, p := range parts {
			pc := p.Tenancy.Classes[s]
			cr.Offered += pc.Offered
			cr.WithinDeadline += pc.WithinDeadline
		}
		slot := make([]*latDigest, len(digs))
		for i, d := range digs {
			slot[i] = d.digs[s]
		}
		merged := mergeLatDigests(slot)
		merged.seal()
		cr.Completed = merged.count()
		cr.P50 = merged.percentile(50)
		cr.P95 = merged.percentile(95)
		cr.P99 = merged.percentile(99)
		if cr.Deadlined && cr.Offered > 0 {
			cr.Attainment = float64(cr.WithinDeadline) / float64(cr.Offered)
		}
		if !cr.Deadlined {
			cr.WithinDeadline = 0
		}
		if sink && testLatencySink != nil && !sketch {
			testLatencySink(cell, "slo:"+c.Class, merged.exact)
		}
		res.Classes[s] = cr
	}
	return res
}

// tenancyMetrics flattens a workload-driven cell's per-class numbers
// into the metrics map. Deadline keys appear only for deadlined
// classes, so batch-only workloads carry no vestigial SLO keys.
func tenancyMetrics(m map[string]float64, r ServingResult) {
	if r.Tenancy == nil {
		return
	}
	for _, c := range r.Tenancy.Classes {
		p := "class_" + c.Class + "_"
		m[p+"offered"] = float64(c.Offered)
		m[p+"completed"] = float64(c.Completed)
		m[p+"p50_ms"] = msFloat(c.P50)
		m[p+"p95_ms"] = msFloat(c.P95)
		m[p+"p99_ms"] = msFloat(c.P99)
		if c.Deadlined {
			m[p+"within_deadline"] = float64(c.WithinDeadline)
			m[p+"slo_attainment"] = c.Attainment
		}
	}
}
