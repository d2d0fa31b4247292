// Package golden compares test outputs with files checked in beside
// the tests. A mismatch says what moved: each changed value of a JSON
// file by its path, with the golden's value, the output's value and
// the relative change of a number; each changed line of any other
// file by its line number. Run a package's tests with -update to
// rewrite its goldens, and git diff shows the same moves.
package golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with the tests' outputs")

// listed caps the moves one mismatch lists before its summary line.
const listed = 20

// A leaf is one value of a JSON file, as JSON, under its path (such as
// cells[3].serving.P99), or one line of a text file, quoted, under
// "line N".
type leaf struct{ at, text string }

// Check compares got byte for byte with the golden file at path and
// fails t on a mismatch, listing what moved. Under -update it writes
// got to path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Error(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v (go test -update writes it)", err)
		return
	}
	if string(got) == string(want) {
		return
	}
	var w, g any
	moved := ""
	if strings.HasSuffix(path, ".json") && json.Unmarshal(want, &w) == nil && json.Unmarshal(got, &g) == nil {
		moved = report(flatten("", w, nil), flatten("", g, nil), "values moved")
	}
	if moved == "" { // not JSON, or the same values laid out differently
		moved = report(lines(want), lines(got), "lines differ")
	}
	t.Errorf("%s differs from the output (go test -update rewrites it):\n%s", path, moved)
}

// flatten appends the values of a decoded JSON document to ls, arrays
// in order and object keys sorted. Numbers decode as float64, so an
// integer move shows exactly up to 2^53; the goldens' integers are
// nanosecond latencies and counts far below that.
func flatten(path string, v any, ls []leaf) []leaf {
	switch v := v.(type) {
	case map[string]any:
		for _, k := range slices.Sorted(maps.Keys(v)) {
			ls = flatten(strings.TrimPrefix(path+"."+k, "."), v[k], ls)
		}
	case []any:
		for i, x := range v {
			ls = flatten(fmt.Sprintf("%s[%d]", path, i), x, ls)
		}
	default:
		b, _ := json.Marshal(v) // a decoded value always marshals
		ls = append(ls, leaf{path, string(b)})
	}
	return ls
}

// lines lists the lines of a text, quoted, by their line numbers.
func lines(b []byte) []leaf {
	var ls []leaf
	for i, l := range strings.Split(string(b), "\n") {
		ls = append(ls, leaf{fmt.Sprintf("line %d", i+1), strconv.Quote(l)})
	}
	return ls
}

// report lists the first leaves that moved, went or came, in want's
// order and then got's, and ends with one line: how many moved and,
// among numbers, the largest relative move and its path. It is empty
// when none moved.
func report(want, got []leaf, what string) string {
	var order []string
	pairs := make(map[string]*[2]string) // path → want's and got's text
	for side, ls := range [][]leaf{want, got} {
		for _, l := range ls {
			if pairs[l.at] == nil {
				pairs[l.at] = &[2]string{"(absent)", "(absent)"}
				order = append(order, l.at)
			}
			pairs[l.at][side] = l.text
		}
	}
	var b strings.Builder
	n, top, topRel := 0, "", 0.0
	for _, at := range order {
		was, now := pairs[at][0], pairs[at][1]
		if was == now {
			continue
		}
		rel := ""
		x, errX := strconv.ParseFloat(was, 64)
		y, errY := strconv.ParseFloat(now, 64)
		if r := (y - x) / math.Abs(x); errX == nil && errY == nil {
			rel = fmt.Sprintf(" (%+.3g%%)", 100*r)
			if top == "" || math.Abs(r) > math.Abs(topRel) {
				top, topRel = at, r
			}
		}
		if n++; n <= listed {
			fmt.Fprintf(&b, "  %s: %s → %s%s\n", at, was, now, rel)
		}
	}
	if n == 0 {
		return ""
	}
	fmt.Fprintf(&b, "%d %s", n, what)
	if top != "" {
		fmt.Fprintf(&b, "; the largest relative move is %+.3g%% at %s", 100*topRel, top)
	}
	return b.String()
}
