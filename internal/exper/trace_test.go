package exper

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestLoadTraceSecondsOffsets(t *testing.T) {
	trace, err := LoadTrace(strings.NewReader("0\n0.25\n1.5\n\n# comment\n3\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 250 * time.Millisecond, 1500 * time.Millisecond, 3 * time.Second}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestLoadTraceCSVTimestampsAnchored(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "requests.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace, err := LoadTrace(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		0,
		250 * time.Millisecond,
		time.Second,
		2500 * time.Millisecond,
		4 * time.Second,
		6 * time.Second,
		9 * time.Second,
		12 * time.Second,
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestLoadTraceRescalesArrivalRate(t *testing.T) {
	// rescale 2 = twice the rate = offsets halved.
	trace, err := LoadTrace(strings.NewReader("1\n3\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	// rescale 0.5 = half the rate = offsets doubled.
	trace, err = LoadTrace(strings.NewReader("1\n"), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if trace[0] != 2*time.Second {
		t.Fatalf("trace = %v, want [2s]", trace)
	}
}

func TestLoadTraceSortsOutOfOrderLogs(t *testing.T) {
	trace, err := LoadTrace(strings.NewReader("5\n1\n3\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{time.Second, 3 * time.Second, 5 * time.Second}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	// An unanchored earliest timestamp mid-log still becomes offset 0.
	trace, err = LoadTrace(strings.NewReader(
		"2021-12-06T10:00:05Z\n2021-12-06T10:00:00Z\n2021-12-06T10:00:02Z\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	want = []time.Duration{0, 2 * time.Second, 5 * time.Second}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestLoadTraceAnchorsEpochSecondsLogs(t *testing.T) {
	// Numeric timestamps that are clearly Unix epoch seconds anchor to
	// the earliest entry instead of replaying as ~51-year offsets that
	// every horizon would silently drop.
	trace, err := LoadTrace(strings.NewReader(
		"1638784800.25,/detect\n1638784800,/detect\n1638784803.5,/classify\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 250 * time.Millisecond, 3500 * time.Millisecond}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	// Small offsets keep their lead-in: no anchoring below the cutoff.
	trace, err = LoadTrace(strings.NewReader("5\n7\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if trace[0] != 5*time.Second {
		t.Fatalf("trace = %v, want lead-in preserved", trace)
	}
}

func TestLoadTraceRejectsBadInput(t *testing.T) {
	cases := []struct {
		in      string
		rescale float64
		want    string
	}{
		{"garbage\n", 1, "neither a seconds offset"},
		{"-1\n", 1, "negative offset"},
		{"1\n", -2, "negative rescale"},
		{"1\n2021-12-06T10:00:00Z\n", 1, "mixes numeric and RFC 3339"},
		{"NaN\n", 1, "neither a seconds offset"},
		{"+Inf\n", 1, "neither a seconds offset"},
		// Errors carry the line number and the offending field so a
		// bad row in a million-line log is findable.
		{"# header\n1\n2\noops\n", 1, `trace line 4: "oops"`},
		{"0\n# comment\n-3,/x\n", 1, "line 3: negative offset -3"},
		{"# log\n2021-12-06T10:00:00Z\n\n7,/a\n", 1,
			`"7" on line 4 vs "2021-12-06T10:00:00Z" on line 2`},
		// Offsets past time.Duration's range once wrapped negative (or,
		// for RFC 3339 spans, saturated) with a nil error.
		{"0\n1e11\n", 0, "line 2: offset beyond"},
		{"0\n# gap\n9.3e9\n", 0, "line 3: offset beyond"},
		{"0\n1\n", 1e-12, "line 2: offset beyond"},
		{"0001-01-01T00:00:00Z\n2021-12-06T10:00:00Z\n", 1, "line 2: offset beyond"},
		{"1\n", math.NaN(), "non-finite rescale"},
	}
	for i, tc := range cases {
		_, err := LoadTrace(strings.NewReader(tc.in), tc.rescale)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want containing %q", i, err, tc.want)
		}
	}
}

func TestLoadTraceAcceptsLongLogLines(t *testing.T) {
	// A line longer than bufio.Scanner's default 64 KiB token limit
	// (huge URL / user-agent after the timestamp) must not reject the
	// log — only the first CSV field matters.
	long := "1.5," + strings.Repeat("x", 1<<17) + "\n"
	trace, err := LoadTrace(strings.NewReader("0.5,/a\n"+long), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}

func TestLoadTraceEmptyLogIsEmptyTrace(t *testing.T) {
	trace, err := LoadTrace(strings.NewReader("# only comments\n\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 0 {
		t.Fatalf("trace = %v, want empty", trace)
	}
}

// FuzzLoadTrace drives the trace loader with arbitrary logs and rescale
// factors: every input either fails, or yields sorted, non-negative
// offsets, one per data line (non-blank, not a '#' comment). The seeds
// include logs whose offsets overflow time.Duration after anchoring or
// rescale, which once came back negative with a nil error.
func FuzzLoadTrace(f *testing.F) {
	f.Add("0\n1e11\n", 0.0)
	f.Add("0\n9.3e9\n", 0.0)
	f.Add("0\n1\n", 1e-12)
	f.Add("0001-01-01T00:00:00Z\n2021-12-06T10:00:00Z\n", 1.0)
	f.Add("1638784800.25,/detect\n1638784800,/detect\n# c\n\n1638784803.5\n", 2.0)
	f.Add("5\n1\n3\n", 0.5)
	f.Fuzz(func(t *testing.T, log string, rescale float64) {
		trace, err := LoadTrace(strings.NewReader(log), rescale)
		if err != nil {
			return
		}
		data := 0
		for _, line := range strings.Split(log, "\n") {
			line = strings.TrimSpace(line)
			if line != "" && !strings.HasPrefix(line, "#") {
				data++
			}
		}
		if len(trace) != data {
			t.Fatalf("%d offsets for %d data lines", len(trace), data)
		}
		for i, off := range trace {
			if off < 0 {
				t.Fatalf("offset %d is negative: %v", i, off)
			}
			if i > 0 && off < trace[i-1] {
				t.Fatalf("offset %d (%v) precedes offset %d (%v)", i, off, i-1, trace[i-1])
			}
		}
	})
}
