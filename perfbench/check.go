package main

import (
	"fmt"
	"math"

	"xartrek/internal/exper"
)

// checkResult verifies one cell's report against the invariants every
// serving result must satisfy, returning every violation found.
func checkResult(r exper.ServingResult) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	lost := 0
	if r.Faults != nil {
		lost = r.Faults.RequestsLost
	}
	if r.Offered <= 0 || r.Completed <= 0 {
		fail("degenerate cell: offered %d, completed %d", r.Offered, r.Completed)
	}
	if r.Completed > r.Offered {
		fail("completed %d > offered %d", r.Completed, r.Offered)
	}
	if r.Completed+r.Shed+lost > r.Offered {
		fail("completed %d + shed %d + lost %d > offered %d", r.Completed, r.Shed, lost, r.Offered)
	}
	if !(r.P50 > 0 && r.P50 <= r.P95 && r.P95 <= r.P99) {
		fail("percentiles out of order: p50 %v, p95 %v, p99 %v", r.P50, r.P95, r.P99)
	}
	// The p99 must rest on at least ten samples beyond it.
	if r.Completed/100 < 10 {
		fail("only %d completions, too few for a p99", r.Completed)
	}
	if t := r.Tenancy; t != nil {
		offered, cohorts := 0, 0
		for _, c := range t.Classes {
			offered += c.Offered
			if c.Completed > c.Offered {
				fail("class %s completed %d > offered %d", c.Class, c.Completed, c.Offered)
			}
		}
		for _, c := range t.Cohorts {
			cohorts += c.Offered
		}
		if offered != r.Offered || cohorts != r.Offered {
			fail("class offered %d, cohort offered %d, cell offered %d", offered, cohorts, r.Offered)
		}
	}
	for name, v := range simMetrics(r) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			fail("%s = %v, want a positive number", name, v)
		}
	}
	return errs
}

// sameReport verifies that a later cell of a seed reproduced the
// seed's first report byte for byte, and so every sim metric bit for
// bit.
func sameReport(first, c *cellRun) error {
	var differ []string
	a, b := simMetrics(first.res), simMetrics(c.res)
	for name, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[name]) {
			differ = append(differ, name)
		}
	}
	if c.digest != first.digest || len(differ) > 0 {
		return fmt.Errorf("seed %d: report %s differs from the earlier run's %s (sim metrics differing: %v)",
			c.seed, c.digest[:12], first.digest[:12], differ)
	}
	return nil
}
