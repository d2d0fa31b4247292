package faults

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sec(n int) Duration { return Duration(time.Duration(n) * time.Second) }

func TestSpecEmpty(t *testing.T) {
	var nilSpec *Spec
	if !nilSpec.Empty() {
		t.Error("nil spec not empty")
	}
	if !(&Spec{MaxRetries: 5}).Empty() {
		t.Error("spec with only retry knobs not empty")
	}
	if (&Spec{Events: []Event{{At: 0, Kind: NodeDown, Node: "n"}}}).Empty() {
		t.Error("spec with events reported empty")
	}
	if (&Spec{Churn: []Churn{{Kind: "node", Targets: []string{"n"}, MTBF: sec(1), MTTR: sec(1)}}}).Empty() {
		t.Error("spec with churn reported empty")
	}
}

func TestRetryDefaults(t *testing.T) {
	var nilSpec *Spec
	if got := nilSpec.Retries(); got != DefaultMaxRetries {
		t.Errorf("nil retries = %d, want %d", got, DefaultMaxRetries)
	}
	if got := (&Spec{}).Retries(); got != DefaultMaxRetries {
		t.Errorf("zero retries = %d, want %d", got, DefaultMaxRetries)
	}
	if got := (&Spec{MaxRetries: -1}).Retries(); got != 0 {
		t.Errorf("negative retries = %d, want 0 (disabled)", got)
	}
	if got := (&Spec{MaxRetries: 7}).Retries(); got != 7 {
		t.Errorf("retries = %d, want 7", got)
	}
	if got := (&Spec{}).Backoff(); got != DefaultRetryBackoff {
		t.Errorf("backoff = %v, want %v", got, DefaultRetryBackoff)
	}
	if got := (&Spec{RetryBackoff: Duration(time.Second)}).Backoff(); got != time.Second {
		t.Errorf("backoff = %v, want 1s", got)
	}
}

func TestValidateRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Events: []Event{{Kind: NodeDown, Node: "n", At: -1}}}, "negative time"},
		{Spec{Events: []Event{{At: 0}}}, "no kind"},
		{Spec{Events: []Event{{Kind: "explode", Node: "n"}}}, "unknown kind"},
		{Spec{Events: []Event{{Kind: NodeDown}}}, "needs a node"},
		{Spec{Events: []Event{{Kind: FPGADown, Node: "n", FPGA: "f"}}}, "does not take a node"},
		{Spec{Events: []Event{{Kind: FPGAUp}}}, "needs an fpga"},
		{Spec{Events: []Event{{Kind: NodeUp, Node: "n", FPGA: "f"}}}, "does not take an fpga"},
		{Spec{Events: []Event{{Kind: LinkPartition, A: "a"}}}, "needs link endpoints"},
		{Spec{Events: []Event{{Kind: NodeDrain, Node: "n", A: "a", B: "b"}}}, "does not take link endpoints"},
		{Spec{Events: []Event{{Kind: LinkRestore, A: "a", B: "a"}}}, "self-link"},
		{Spec{Events: []Event{{Kind: LinkDegrade, A: "a", B: "b", Factor: 0.5}}}, "must be >= 1"},
		{Spec{Events: []Event{{Kind: LinkDegrade, A: "a", B: "b", Factor: 1e6 + 1}}}, "event 0: link-degrade a-b factor 1.000001e+06 must be >= 1 and <= 1e+06"},
		{Spec{Events: []Event{{Kind: NodeDown, Node: "n"}, {Kind: LinkDegrade, A: "a", B: "b", Factor: math.NaN()}}}, "event 1: link-degrade a-b factor NaN"},
		{Spec{Events: []Event{{Kind: NodeDown, Node: "n", Factor: 2}}}, "does not take a factor"},
		{Spec{Churn: []Churn{{Targets: []string{"n"}, MTBF: sec(1), MTTR: sec(1)}}}, "no kind"},
		{Spec{Churn: []Churn{{Kind: "link", Targets: []string{"n"}, MTBF: sec(1), MTTR: sec(1)}}}, "unknown churn kind"},
		{Spec{Churn: []Churn{{Kind: "node", MTBF: sec(1), MTTR: sec(1)}}}, "no targets"},
		{Spec{Churn: []Churn{{Kind: "node", Targets: []string{""}, MTBF: sec(1), MTTR: sec(1)}}}, "empty target"},
		{Spec{Churn: []Churn{{Kind: "node", Targets: []string{"n"}, MTTR: sec(1)}}}, "non-positive mtbf"},
		{Spec{Churn: []Churn{{Kind: "node", Targets: []string{"n"}, MTBF: sec(1)}}}, "non-positive mttr"},
		{Spec{Churn: []Churn{{Kind: "fpga", Targets: []string{"f"}, MTBF: sec(1), MTTR: sec(1), Drain: true}}}, "does not take drain"},
	}
	for i, tc := range cases {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
}

func TestValidateAcceptsWellFormedSpec(t *testing.T) {
	s := Spec{
		Events: []Event{
			{At: sec(1), Kind: NodeDown, Node: "arm-01"},
			{At: sec(2), Kind: NodeUp, Node: "arm-01"},
			{At: sec(3), Kind: NodeDrain, Node: "x86-01"},
			{At: sec(4), Kind: NodeUndrain, Node: "x86-01"},
			{At: sec(5), Kind: FPGADown, FPGA: "fpga-00"},
			{At: sec(6), Kind: FPGAUp, FPGA: "fpga-00"},
			{At: sec(7), Kind: LinkDegrade, A: "x86-00", B: "arm-00", Factor: 2.5},
			{At: sec(8), Kind: LinkPartition, A: "x86-00", B: "arm-01"},
			{At: sec(9), Kind: LinkRestore, A: "x86-00", B: "arm-00"},
		},
		Churn: []Churn{
			{Kind: "node", Targets: []string{"arm-02"}, MTBF: sec(10), MTTR: sec(1)},
			{Kind: "node", Targets: []string{"x86-01"}, MTBF: sec(10), MTTR: sec(1), Drain: true},
			{Kind: "fpga", Targets: []string{"fpga-00"}, MTBF: sec(10), MTTR: sec(1)},
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineExplicitEventsDropPastHorizon(t *testing.T) {
	s := &Spec{Events: []Event{
		{At: sec(1), Kind: NodeDown, Node: "n"},
		{At: sec(30), Kind: NodeUp, Node: "n"},
	}}
	tl, err := s.Timeline(1, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 1 || tl[0].Kind != NodeDown {
		t.Fatalf("timeline = %+v, want only the in-horizon event", tl)
	}
}

func TestTimelineDeterministicAndSeedSensitive(t *testing.T) {
	s := &Spec{
		Events: []Event{{At: sec(5), Kind: NodeDown, Node: "x86-01"}},
		Churn: []Churn{
			{Kind: "node", Targets: []string{"arm-00", "arm-01"}, MTBF: sec(8), MTTR: sec(2)},
			{Kind: "fpga", Targets: []string{"fpga-00"}, MTBF: sec(12), MTTR: sec(3)},
		},
	}
	a, err := s.Timeline(2021, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Timeline(2021, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (spec, seed, horizon) produced different timelines")
	}
	c, err := s.Timeline(2022, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical churn expansions")
	}
	if len(a) < 3 {
		t.Fatalf("timeline suspiciously short: %d events", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("timeline not sorted at %d: %v after %v", i, a[i].At, a[i-1].At)
		}
	}
}

func TestTimelineChurnAlternatesPerTarget(t *testing.T) {
	s := &Spec{Churn: []Churn{
		{Kind: "node", Targets: []string{"arm-00"}, MTBF: sec(5), MTTR: sec(1)},
	}}
	tl, err := s.Timeline(7, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) == 0 {
		t.Fatal("churn generated no events over 5 minutes with MTBF 5s")
	}
	// Per-target events alternate down, up, down, up, ... in time order.
	want := NodeDown
	for i, ev := range tl {
		if ev.Node != "arm-00" {
			t.Fatalf("event %d targets %q", i, ev.Node)
		}
		if ev.Kind != want {
			t.Fatalf("event %d kind = %s, want %s", i, ev.Kind, want)
		}
		if want == NodeDown {
			want = NodeUp
		} else {
			want = NodeDown
		}
		if time.Duration(ev.At) >= 5*time.Minute {
			t.Fatalf("event %d past horizon: %v", i, ev.At)
		}
	}
}

func TestTimelineDrainChurnEmitsDrainEvents(t *testing.T) {
	s := &Spec{Churn: []Churn{
		{Kind: "node", Targets: []string{"x86-01"}, MTBF: sec(5), MTTR: sec(1), Drain: true},
	}}
	tl, err := s.Timeline(7, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range tl {
		if ev.Kind != NodeDrain && ev.Kind != NodeUndrain {
			t.Fatalf("event %d kind = %s, want drain/undrain only", i, ev.Kind)
		}
	}
	if len(tl) == 0 {
		t.Fatal("drain churn generated nothing")
	}
}

func TestTimelineValidatesFirst(t *testing.T) {
	s := &Spec{Events: []Event{{Kind: "bogus"}}}
	if _, err := s.Timeline(1, time.Minute); err == nil {
		t.Fatal("invalid spec expanded without error")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := &Spec{
		Events: []Event{
			{At: sec(5), Kind: NodeDown, Node: "arm-01"},
			{At: sec(7), Kind: LinkDegrade, A: "x86-00", B: "arm-00", Factor: 4},
		},
		Churn:        []Churn{{Kind: "node", Targets: []string{"arm-02"}, MTBF: sec(15), MTTR: sec(3), Drain: true}},
		MaxRetries:   2,
		RetryBackoff: Duration(10 * time.Millisecond),
	}
	js, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*s, back) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", *s, back)
	}
	// Durations serialize human-readable.
	if !strings.Contains(string(js), `"at":"5s"`) {
		t.Fatalf("duration not serialized as string: %s", js)
	}
}
