package exper

import (
	"sync"
	"testing"
	"time"
)

// TestServingReportConservation checks that every serving report of
// the small checked-in campaigns accounts for its requests. Each
// serving-class cell runs as checked in and, when shardable (no
// faults, admission or autoscaler) with at least two x86 nodes, at
// min(4, x86 nodes) shards. Requests still in flight at the horizon
// are not reported, so the aggregate check is an inequality:
// completed + shed + lost <= offered.
func TestServingReportConservation(t *testing.T) {
	arts := testArtifacts(t)
	var (
		mu        sync.Mutex
		timelines int // offered requests summed over the serving timelines
	)
	testServingDone = func(_ *Platform, part servingPart, _ *timelineLat) {
		mu.Lock()
		timelines += part.res.Offered
		mu.Unlock()
	}
	defer func() { testServingDone = nil }()
	runs := 0
	for _, c := range smallServingCells(t) {
		type variant struct {
			label string
			spec  CellSpec
		}
		variants := []variant{{c.String(), c.spec}}
		fleetLocal := (c.spec.Faults == nil || c.spec.Faults.Empty()) && !c.spec.Admission.Enabled() && !c.spec.Autoscaler.Enabled()
		if shards := min(4, cellEntryNodes(t, c.spec)); fleetLocal && shards > 1 {
			sh := c.spec
			opts := Options{}
			if sh.Options != nil {
				opts = *sh.Options
			}
			opts.Shards = shards
			sh.Options = &opts
			variants = append(variants, variant{c.String() + " (shards)", sh})
		}
		for _, v := range variants {
			timelines = 0
			rep, err := RunCampaign(arts, c.campaign(v.spec), RunOpts{BaseDir: campaignsDir})
			if err != nil {
				t.Fatalf("%s: %v", v.label, err)
			}
			runs++
			cell := rep.Cells[0]
			label, dur := v.label, time.Duration(v.spec.Duration)
			if cell.Knee != nil {
				if cell.Knee.AtKnee != nil {
					checkServingConservation(t, label+" at knee", *cell.Knee.AtKnee, dur)
				}
				continue
			}
			r := *cell.Serving
			checkServingConservation(t, label, r, dur)
			if timelines != r.Offered {
				t.Errorf("%s: timelines offered %d requests, report says %d", label, timelines, r.Offered)
			}
		}
	}
	t.Logf("%d serving runs checked", runs)
}

// checkServingConservation asserts one serving report's request
// accounting: the aggregate, the throughput, the per-class and
// per-cohort split of a workload and the fault counters.
func checkServingConservation(t *testing.T, label string, r ServingResult, dur time.Duration) {
	t.Helper()
	lost := 0
	if f := r.Faults; f != nil {
		lost = f.RequestsLost
		if f.RetriesExhausted != f.RequestsLost {
			t.Errorf("%s: retries_exhausted %d != requests_lost %d", label, f.RetriesExhausted, f.RequestsLost)
		}
		if r.Offered > 0 && f.Availability != float64(r.Completed)/float64(r.Offered) {
			t.Errorf("%s: availability %v != completed/offered %d/%d", label, f.Availability, r.Completed, r.Offered)
		}
	}
	if r.Completed+r.Shed+lost > r.Offered {
		t.Errorf("%s: completed %d + shed %d + lost %d > offered %d", label, r.Completed, r.Shed, lost, r.Offered)
	}
	if want := float64(r.Completed) / dur.Seconds(); r.ThroughputPerSec != want {
		t.Errorf("%s: throughput %v != completed/duration %v", label, r.ThroughputPerSec, want)
	}
	ten := r.Tenancy
	if ten == nil {
		return
	}
	cohortOffered, cohortCompleted := 0, 0
	classOffered := make(map[string]int)
	classCompleted := make(map[string]int)
	for _, c := range ten.Cohorts {
		cohortOffered += c.Offered
		cohortCompleted += c.Completed
		classOffered[c.Class] += c.Offered
		classCompleted[c.Class] += c.Completed
	}
	if cohortOffered != r.Offered || cohortCompleted != r.Completed {
		t.Errorf("%s: cohorts offered/completed %d/%d, aggregate %d/%d",
			label, cohortOffered, cohortCompleted, r.Offered, r.Completed)
	}
	sumOffered, sumCompleted := 0, 0
	for _, c := range ten.Classes {
		sumOffered += c.Offered
		sumCompleted += c.Completed
		if c.Offered != classOffered[c.Class] || c.Completed != classCompleted[c.Class] {
			t.Errorf("%s: class %s offered/completed %d/%d, its cohorts %d/%d",
				label, c.Class, c.Offered, c.Completed, classOffered[c.Class], classCompleted[c.Class])
		}
		if c.WithinDeadline > c.Completed {
			t.Errorf("%s: class %s within deadline %d > completed %d", label, c.Class, c.WithinDeadline, c.Completed)
		}
		if c.Deadlined && c.Offered > 0 && c.Attainment != float64(c.WithinDeadline)/float64(c.Offered) {
			t.Errorf("%s: class %s attainment %v != within/offered %d/%d",
				label, c.Class, c.Attainment, c.WithinDeadline, c.Offered)
		}
	}
	if sumOffered != r.Offered || sumCompleted != r.Completed {
		t.Errorf("%s: classes offered/completed %d/%d, aggregate %d/%d",
			label, sumOffered, sumCompleted, r.Offered, r.Completed)
	}
}
