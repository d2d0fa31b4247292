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
// and deadline, per-cohort and per-class counters, and the pre-built
// completion closures. The class latency digests are the timeline's
// (timelineLat).
type tenantRun struct {
	spec     *tenancy.Spec
	apps     [][]*workloads.App // per cohort: its mix, or the shared pool
	classes  []string
	classOf  []string        // per cohort: its class name
	slot     []int           // per cohort: index into classes
	deadline []time.Duration // per cohort: 0 for batch
	within   []int           // per class: completions within deadline
	offered  []int           // per cohort: injected count, shed included
	complets []int           // per cohort: completed count
	// done holds the completion closure of each cohort's applications,
	// in apps order.
	done [][]func(RunResult)
}

// newTenantRun builds the tenancy state of one workload-driven serving
// run; ServingConfig.source builds its arrival stream and bind its
// completion closures.
func newTenantRun(cfg *ServingConfig, pool []*workloads.App) (*tenantRun, error) {
	spec := cfg.Workload
	n, classes := len(spec.Cohorts), spec.Classes()
	t := &tenantRun{
		spec:     spec,
		apps:     make([][]*workloads.App, n),
		classes:  classes,
		classOf:  make([]string, n),
		slot:     make([]int, n),
		deadline: make([]time.Duration, n),
		within:   make([]int, len(classes)),
		offered:  make([]int, n),
		complets: make([]int, n),
		done:     make([][]func(RunResult), n),
	}
	classSlot := make(map[string]int, len(t.classes))
	for s, class := range t.classes {
		classSlot[class] = s
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

// bind builds one completion closure per (cohort, application of its
// mix): each records the latency once, in the timeline's leaf of the
// cohort's class and the application, counts the cohort's completion
// and, for a deadlined cohort, whether it met the deadline. Built once
// per run, not per request.
func (t *tenantRun) bind(lat *timelineLat) {
	for coh, apps := range t.apps {
		s, deadline := t.slot[coh], t.deadline[coh]
		t.done[coh] = make([]func(RunResult), len(apps))
		for j, app := range apps {
			leaf := lat.leaf(s, app.Name)
			t.done[coh][j] = func(run RunResult) {
				el := run.Elapsed()
				leaf.add(el)
				t.complets[coh]++
				if deadline > 0 && el <= deadline {
					t.within[s]++
				}
			}
		}
	}
}

// finalize counts the run's traffic per cohort and per class, the
// class completions from the timeline's class digests; the class
// percentiles and attainment are reduceTenancy's.
func (t *tenantRun) finalize(lat *timelineLat) *TenancyResult {
	res := &TenancyResult{
		Classes: make([]ClassResult, len(t.classes)),
		Cohorts: make([]CohortResult, len(t.spec.Cohorts)),
	}
	for s, class := range t.classes {
		res.Classes[s] = ClassResult{Class: class, Completed: lat.classes[s].count(), WithinDeadline: t.within[s]}
	}
	for i := range t.spec.Cohorts {
		c := &t.spec.Cohorts[i]
		cr := &res.Classes[t.slot[i]]
		cr.Offered += t.offered[i]
		cr.Deadlined = cr.Deadlined || t.deadline[i] > 0
		res.Cohorts[i] = CohortResult{ID: c.ID, Class: c.Class, Offered: t.offered[i], Completed: t.complets[i]}
	}
	return res
}

// reduceTenancy builds a workload-driven run's report from its parts,
// in timeline order: counts sum per cohort and class, and each class's
// digests merge, so its percentiles and attainment cover every
// timeline. No other code builds class reports. nil without a
// workload.
func reduceTenancy(cell string, parts []servingPart) *TenancyResult {
	base := parts[0].res.Tenancy
	if base == nil {
		return nil
	}
	res := &TenancyResult{
		Classes: make([]ClassResult, len(base.Classes)),
		Cohorts: make([]CohortResult, len(base.Cohorts)),
	}
	digs := make([]*latDigest, len(parts))
	for s, c := range base.Classes {
		cr := ClassResult{Class: c.Class, Deadlined: c.Deadlined}
		for i, p := range parts {
			pc := p.res.Tenancy.Classes[s]
			cr.Offered += pc.Offered
			cr.Completed += pc.Completed
			cr.WithinDeadline += pc.WithinDeadline
			digs[i] = p.classes[s]
		}
		d := mergeLatDigests(digs)
		cr.P50, cr.P95, cr.P99 = d.quantiles()
		d.sink(cell, "slo:"+c.Class)
		if cr.Deadlined && cr.Offered > 0 {
			cr.Attainment = float64(cr.WithinDeadline) / float64(cr.Offered)
		}
		res.Classes[s] = cr
	}
	for i, c := range base.Cohorts {
		res.Cohorts[i] = CohortResult{ID: c.ID, Class: c.Class}
		for _, p := range parts {
			pc := p.res.Tenancy.Cohorts[i]
			res.Cohorts[i].Offered += pc.Offered
			res.Cohorts[i].Completed += pc.Completed
		}
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
