package exper

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"xartrek/internal/cluster"
)

func TestMMPPTraceDeterministicSortedBounded(t *testing.T) {
	states := []MMPPState{
		{RatePerSec: 40, MeanSojourn: 2 * time.Second},
		{RatePerSec: 1, MeanSojourn: 8 * time.Second},
	}
	a, err := MMPPTrace(7, time.Minute, states)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MMPPTrace(7, time.Minute, states)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed traces diverged")
	}
	if len(a) == 0 {
		t.Fatal("empty trace for a minute of bursty load")
	}
	for i, at := range a {
		if at < 0 || at >= time.Minute {
			t.Fatalf("offset %d = %v outside [0, horizon)", i, at)
		}
		if i > 0 && at < a[i-1] {
			t.Fatalf("offsets not sorted at %d: %v < %v", i, at, a[i-1])
		}
	}
	c, err := MMPPTrace(8, time.Minute, states)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew identical traces")
	}
}

func TestMMPPTraceIsBurstierThanPoisson(t *testing.T) {
	// The squared coefficient of variation of MMPP interarrival times
	// must exceed a Poisson process's 1 when the state rates differ
	// sharply (here 50 req/s bursts vs 0.5 req/s idle).
	trace, err := MMPPTrace(2021, 10*time.Minute, []MMPPState{
		{RatePerSec: 50, MeanSojourn: 2 * time.Second},
		{RatePerSec: 0.5, MeanSojourn: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) < 100 {
		t.Fatalf("only %d arrivals; trace too thin to measure burstiness", len(trace))
	}
	var mean, m2 float64
	n := 0
	for i := 1; i < len(trace); i++ {
		gap := (trace[i] - trace[i-1]).Seconds()
		n++
		delta := gap - mean
		mean += delta / float64(n)
		m2 += delta * (gap - mean)
	}
	scv := (m2 / float64(n)) / (mean * mean)
	if scv <= 1.5 {
		t.Fatalf("interarrival SCV = %.2f, want >1.5 (Poisson is 1)", scv)
	}
}

func TestMMPPTraceRejectsBadInputs(t *testing.T) {
	good := []MMPPState{{RatePerSec: 1, MeanSojourn: time.Second}}
	cases := []struct {
		horizon time.Duration
		states  []MMPPState
		want    string
	}{
		{0, good, "horizon"},
		{time.Second, nil, "no states"},
		{time.Second, []MMPPState{{RatePerSec: -1, MeanSojourn: time.Second}}, "negative rate"},
		{time.Second, []MMPPState{{RatePerSec: 1e12, MeanSojourn: time.Second}}, "stream bound"},
		{time.Second, []MMPPState{{RatePerSec: 1}}, "sojourn"},
	}
	for i, tc := range cases {
		if _, err := MMPPTrace(1, tc.horizon, tc.states); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
}

func TestMMPPTraceDrivesServingRun(t *testing.T) {
	arts := testArtifacts(t)
	trace, err := MMPPTrace(5, 30*time.Second, []MMPPState{
		{RatePerSec: 20, MeanSojourn: time.Second},
		{RatePerSec: 0, MeanSojourn: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunServing(arts, ServingConfig{
		Name: "mmpp", Topo: cluster.ScaleOutTopology("rack8", 4, 4, 2),
		Mode: ModeXarTrek, Duration: 30 * time.Second, Seed: 2021, Trace: trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Offered != len(trace) {
		t.Fatalf("offered %d, want %d (whole trace inside horizon)", r.Offered, len(trace))
	}
	if r.Completed == 0 {
		t.Fatal("bursty run completed nothing")
	}
}
