package exper

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/elastic"
	"xartrek/internal/tenancy"
)

// testWorkload is the canonical two-cohort workload the integration
// tests run: a bursty deadline-bound interactive cohort over the small
// kernels and a heavier batch analytics cohort.
func testWorkload() *tenancy.Spec {
	return &tenancy.Spec{Cohorts: []tenancy.Cohort{
		{
			ID:           "interactive",
			RateFraction: 0.3,
			Class:        tenancy.ClassCritical,
			Deadline:     tenancy.Duration(400 * time.Millisecond),
			Arrival:      tenancy.ArrivalSpec{Process: tenancy.ProcessGamma, CV: 3},
			Apps:         []tenancy.AppShare{{Name: "FaceDet320", Weight: 2}, {Name: "Digit500"}},
		},
		{
			ID:           "analytics",
			RateFraction: 0.7,
			Class:        tenancy.ClassBatch,
			Arrival:      tenancy.ArrivalSpec{Process: tenancy.ProcessWeibull, CV: 2},
		},
	}}
}

// TestTenantsCampaignDeadlineBeatsDefault runs the checked-in tenants
// campaign and pins its acceptance property: at equal aggregate rate on
// the cross-rack topology, the deadline policy beats the default
// policy on critical-class p99 without losing aggregate throughput,
// and every cell reports per-class percentiles, SLO attainment and
// per-cohort counters.
func TestTenantsCampaignDeadlineBeatsDefault(t *testing.T) {
	arts := testArtifacts(t)
	f, err := os.Open(filepath.Join(campaignsDir, "tenants.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseCampaign(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCampaign(arts, *spec, RunOpts{BaseDir: campaignsDir})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("tenants campaign expanded to %d cells, want 2 (default, deadline)", len(rep.Cells))
	}
	byPolicy := make(map[string]CellResult, 2)
	for _, c := range rep.Cells {
		if c.Serving == nil || c.Serving.Tenancy == nil {
			t.Fatalf("cell %d carries no tenancy report", c.Index)
		}
		byPolicy[c.Serving.Policy] = c
	}
	def, ok := byPolicy[PolicyDefault]
	if !ok {
		t.Fatal("no default-policy cell in the tenants campaign")
	}
	ddl, ok := byPolicy[PolicyDeadline]
	if !ok {
		t.Fatal("no deadline-policy cell in the tenants campaign")
	}
	critical := func(c CellResult) ClassResult {
		for _, cl := range c.Serving.Tenancy.Classes {
			if cl.Class == tenancy.ClassCritical {
				return cl
			}
		}
		t.Fatalf("cell %d reports no critical class", c.Index)
		return ClassResult{}
	}
	dc, xc := ddl.Serving.Tenancy, def.Serving.Tenancy
	if dcrit, xcrit := critical(ddl), critical(def); dcrit.P99 >= xcrit.P99 {
		t.Errorf("deadline policy does not beat default on critical p99: %v vs %v", dcrit.P99, xcrit.P99)
	} else if dcrit.Attainment < xcrit.Attainment {
		t.Errorf("deadline policy lost SLO attainment: %.4f vs %.4f", dcrit.Attainment, xcrit.Attainment)
	}
	if ddl.Serving.Completed < def.Serving.Completed {
		t.Errorf("deadline policy lost aggregate throughput: %d vs %d completed",
			ddl.Serving.Completed, def.Serving.Completed)
	}
	// Both cells see the identical offered stream: the workload is a
	// pure function of (spec, rate, seed), independent of policy.
	if ddl.Serving.Offered != def.Serving.Offered {
		t.Errorf("policies saw different offered streams: %d vs %d", ddl.Serving.Offered, def.Serving.Offered)
	}
	for _, tr := range []*TenancyResult{dc, xc} {
		if len(tr.Cohorts) != 2 || tr.Cohorts[0].ID != "interactive" || tr.Cohorts[1].ID != "analytics" {
			t.Fatalf("cohort report out of spec order: %+v", tr.Cohorts)
		}
		sum := 0
		for _, coh := range tr.Cohorts {
			sum += coh.Offered
		}
		var classSum int
		for _, cl := range tr.Classes {
			classSum += cl.Offered
		}
		if sum != classSum {
			t.Errorf("cohort offered sum %d != class offered sum %d", sum, classSum)
		}
	}
	// The flat metrics map carries the per-class keys, attainment only
	// for deadlined classes.
	m := ddl.Metrics
	for _, key := range []string{
		"class_critical_offered", "class_critical_completed",
		"class_critical_p50_ms", "class_critical_p95_ms", "class_critical_p99_ms",
		"class_critical_within_deadline", "class_critical_slo_attainment",
		"class_batch_offered", "class_batch_p99_ms",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if _, ok := m["class_batch_slo_attainment"]; ok {
		t.Error("batch class reports slo_attainment without a deadline")
	}
	if att := m["class_critical_slo_attainment"]; att <= 0 || att > 1 {
		t.Errorf("critical slo_attainment %v outside (0, 1]", att)
	}
}

// TestWorkloadShardedDeterministicAcrossGOMAXPROCS pins that a
// workload-driven sharded run is a pure function of its config:
// per-class digests land in indexed slots and fold in shard order, so
// parallelism width must not leak into the report.
func TestWorkloadShardedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	arts := testArtifacts(t)
	cfg := ServingConfig{
		Topo:       cluster.ScaleOutTopology("rack8", 4, 4, 2),
		Mode:       ModeXarTrek,
		RatePerSec: 8,
		Duration:   30 * time.Second,
		Seed:       2021,
		Workload:   testWorkload(),
	}
	cfg.Opts.Shards = 4
	run := func() []byte {
		res, err := RunServing(arts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tenancy == nil {
			t.Fatal("sharded workload run carries no tenancy report")
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	var p1, p8 []byte
	withGOMAXPROCS(1, func() { p1 = run() })
	withGOMAXPROCS(8, func() { p8 = run() })
	if string(p1) != string(p8) {
		t.Fatalf("workload shard result depends on GOMAXPROCS:\n1: %s\n8: %s", p1, p8)
	}
}

// TestWorkloadFreeReportsUnchanged pins the byte-identity contract for
// workload-free cells: the new CellSpec and ServingResult fields are
// nil-gated with omitempty, so campaign fingerprints (and therefore
// checkpoints) and reports marshal exactly as before the tenancy
// subsystem existed.
func TestWorkloadFreeReportsUnchanged(t *testing.T) {
	cellBlob, err := json.Marshal(CellSpec{Kind: KindServing, Rate: 2, Duration: Duration(5 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cellBlob), "workload") {
		t.Errorf("workload-free CellSpec JSON mentions workload: %s", cellBlob)
	}
	arts := testArtifacts(t)
	res, err := RunServing(arts, ServingConfig{
		Topo: cluster.ScaleOutTopology("rack4", 2, 2, 1), Mode: ModeXarTrek,
		RatePerSec: 2, Duration: 10 * time.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenancy != nil {
		t.Fatal("workload-free serving run reports tenancy")
	}
	resBlob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(resBlob), "Tenancy") {
		t.Errorf("workload-free ServingResult JSON mentions Tenancy: %s", resBlob)
	}
}

// TestWorkloadKneeClassBounds runs a knee search whose SLO predicate is
// purely per-class (critical p99 and minimum attainment): the search
// must bracket, the probes must carry the per-class observations, and
// the at-knee run must meet the class bounds.
func TestWorkloadKneeClassBounds(t *testing.T) {
	arts := testArtifacts(t)
	cell := CellSpec{
		Name:     "tenant-knee",
		Kind:     KindKnee,
		Topology: &TopologySpec{Kind: "scale-out", Name: "rack4", X86: 2, ARM: 2, FPGAs: 1},
		Mode:     "xar-trek",
		Duration: Duration(20 * time.Second),
		Seed:     2021,
		Workload: testWorkload(),
		Knee: &elastic.KneeSpec{
			RateLo: 2, RateHi: 16,
			SLO: elastic.SLOSpec{
				ClassP99:      map[string]elastic.Duration{tenancy.ClassCritical: elastic.Duration(time.Second)},
				MinAttainment: map[string]float64{tenancy.ClassCritical: 0.8},
			},
		},
	}
	rep, err := RunCampaign(arts, CampaignSpec{Name: "tenant-knee", Cells: []CellSpec{cell}}, RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	kr := rep.Cells[0].Knee
	if kr == nil {
		t.Fatal("no knee result")
	}
	if kr.KneeRatePerSec <= 0 {
		t.Fatalf("knee not found: %v", kr.KneeRatePerSec)
	}
	for _, p := range kr.Probes {
		if len(p.ClassP99) == 0 {
			t.Fatalf("probe at %v carries no per-class p99 observations", p.RatePerSec)
		}
		if _, ok := p.ClassAttainment[tenancy.ClassCritical]; !ok {
			t.Fatalf("probe at %v carries no critical attainment", p.RatePerSec)
		}
	}
	at := kr.AtKnee
	if at == nil || at.Tenancy == nil {
		t.Fatal("at-knee run carries no tenancy report")
	}
	for _, cl := range at.Tenancy.Classes {
		if cl.Class != tenancy.ClassCritical {
			continue
		}
		if cl.P99 > time.Second {
			t.Errorf("at-knee critical p99 %v exceeds the class bound", cl.P99)
		}
		if cl.Attainment < 0.8 {
			t.Errorf("at-knee critical attainment %.4f under the class bound", cl.Attainment)
		}
	}
}

// TestWorkloadSpecValidation pins the reject-ignored-knobs rule and the
// knee cross-validation for workload cells.
func TestWorkloadSpecValidation(t *testing.T) {
	workload := `"workload":{"cohorts":[
		{"id":"a","rate_fraction":0.5,"class":"critical","deadline":"200ms"},
		{"id":"b","rate_fraction":0.5,"class":"batch"}]}`
	cases := []struct {
		name string
		spec string
		want string
	}{
		{
			name: "non-serving kind",
			spec: `{"name":"v","cells":[{"kind":"set","apps":["CG-A"],` + workload + `}]}`,
			want: "set cell does not take a workload",
		},
		{
			name: "workload plus trace",
			spec: `{"name":"v","cells":[{"kind":"serving","trace":["1s"],"duration":"10s",` + workload + `}]}`,
			want: "workload and an explicit trace",
		},
		{
			name: "workload plus mmpp",
			spec: `{"name":"v","cells":[{"kind":"serving","duration":"10s",
			        "mmpp":[{"rate_per_sec":4,"mean_sojourn":"2s"}],` + workload + `}]}`,
			want: "workload and an explicit trace",
		},
		{
			name: "invalid workload carries cohort id",
			spec: `{"name":"v","cells":[{"kind":"serving","rate":2,"duration":"10s",
			        "workload":{"cohorts":[{"id":"a","rate_fraction":0.5,"class":"critical"}]}}]}`,
			want: `cohort "a": critical class needs a positive deadline`,
		},
		{
			name: "knee class bounds need a workload",
			spec: `{"name":"v","cells":[{"kind":"knee","duration":"10s",
			        "knee":{"rate_lo":2,"rate_hi":8,"slo":{"class_p99":{"critical":"1s"}}}}]}`,
			want: "require a workload",
		},
		{
			name: "knee class bound names an absent class",
			spec: `{"name":"v","cells":[{"kind":"knee","duration":"10s",
			        "knee":{"rate_lo":2,"rate_hi":8,"slo":{"min_attainment":{"gold":0.9}}},` + workload + `}]}`,
			want: `names class "gold" absent from the workload`,
		},
		{
			name: "unknown policy lists deadline",
			spec: `{"name":"v","cells":[{"kind":"serving","rate":2,"duration":"10s","policy":"nope"}]}`,
			want: PolicyDeadline,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseCampaign(strings.NewReader(tc.spec))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
	// The deadline policy itself must parse.
	ok := `{"name":"v","cells":[{"kind":"serving","rate":2,"duration":"10s",
	        "policies":["default","deadline"],` + workload + `}]}`
	if _, err := ParseCampaign(strings.NewReader(ok)); err != nil {
		t.Fatalf("deadline policy rejected: %v", err)
	}
}

// TestWorkloadRuntimeRejections pins the engine-level guards: unknown
// applications in a cohort mix and workload-plus-trace configs are
// refused with the cohort identified.
func TestWorkloadRuntimeRejections(t *testing.T) {
	arts := testArtifacts(t)
	base := ServingConfig{
		Topo: cluster.ScaleOutTopology("rack4", 2, 2, 1), Mode: ModeXarTrek,
		RatePerSec: 2, Duration: 5 * time.Second, Seed: 1,
	}
	bad := base
	bad.Workload = testWorkload()
	bad.Workload.Cohorts[0].Apps = []tenancy.AppShare{{Name: "NoSuchApp"}}
	if _, err := RunServing(arts, bad); err == nil ||
		!strings.Contains(err.Error(), `cohort "interactive"`) ||
		!strings.Contains(err.Error(), "NoSuchApp") {
		t.Fatalf("unknown app: error = %v, want cohort-qualified rejection", err)
	}
	traced := base
	traced.Workload = testWorkload()
	traced.Trace = []time.Duration{time.Second}
	if _, err := RunServing(arts, traced); err == nil ||
		!strings.Contains(err.Error(), "incompatible with an arrival trace") {
		t.Fatalf("workload+trace: error = %v, want incompatibility rejection", err)
	}
}
