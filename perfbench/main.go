// Command perfbench is the repository's benchmark. It runs one
// workload's serving cell through exper.RunCampaign for a fixed wall
// time, checks the outputs, and prints every metric by name and unit,
// ending with one JSON result line on standard output.
//
// With --trace 0 it reports the end-to-end metrics of untraced cells;
// with --trace 1 it alternates untraced and CPU-profiled cells, times
// its own calls into each layer as spans, replays single layers in
// isolation, and reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"xartrek/internal/cluster"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setupReps is how many times a run builds its set-up; setup_s is the
// median.
const setupReps = 41

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rack256-1m, rack1024-sharded or tenants-churn")
	seed := fs.Int64("seed", 2021, "workload seed; the run also uses two seeds derived from it")
	seconds := fs.Float64("seconds", runSeconds, "wall time to measure for (at least one cell per seed runs regardless)")
	traceMode := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
	spansOut := fs.String("spans", "", "file the traced run writes its spans to (default .bench_out/spans-<workload>-<seed>.json)")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		b, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	spans := *spansOut
	if spans == "" {
		spans = fmt.Sprintf(".bench_out/spans-%s-%d.json", w.name, *seed)
	}
	res, checks, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceMode == 1, spans, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range checks {
		fmt.Fprintln(stderr, "perfbench: output check failed:", e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload for the given wall time and returns the
// result line plus every failed output check.
func measure(w *workload, seed int64, seconds time.Duration, traced bool, spansPath string, log io.Writer) (*result, []error, error) {
	var tr *tracer
	reps := setupReps
	if traced {
		tr = newTracer()
		reps = 5
	}
	seeds := cellSeeds(seed)
	fmt.Fprintf(log, "perfbench: workload %s, seeds %v, GOMAXPROCS %d, traced %v\n", w.name, seeds, runtime.GOMAXPROCS(0), traced)
	fmt.Fprintln(log, "perfbench: open loop in virtual time: arrivals are due on the simulated schedule, so generator lateness is 0 by construction")
	setupDur, s, err := w.timeSetups(reps, tr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(log, "setup: median %.3f ms over %d builds\n", ms(setupDur), reps)

	var cells, untraced, tracedCells []*cellRun
	start := time.Now()
	for i := 0; ; i++ {
		enough := time.Since(start) >= seconds
		if traced && enough && len(untraced) > 0 && len(tracedCells) > 0 {
			break
		}
		if !traced && enough && i >= len(seeds) {
			break
		}
		cellSeed, profiled := seeds[i%len(seeds)], false
		if traced {
			// A traced run alternates untraced and profiled cells of one
			// seed, so both sample the same machine conditions.
			cellSeed, profiled = seeds[0], i%2 == 1
		}
		c, err := runCell(s, cellSeed, profiled, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("cell %d (seed %d): %w", i, cellSeed, err)
		}
		cells = append(cells, c)
		if profiled {
			tracedCells = append(tracedCells, c)
		} else {
			untraced = append(untraced, c)
		}
		tag := ""
		if profiled {
			tag = " (profiled)"
		}
		fmt.Fprintf(log, "cell %d seed %d%s: wall %.3f s, %.0f req/wall-s, %.3f us CPU/req, peak live heap %.2f MiB, %.3f allocs/req, %d offered, p99 %v, completed %.5f, report sha256 %s\n",
			i, c.seed, tag, c.wall.Seconds(), c.offered()/c.wall.Seconds(),
			float64(c.cpu)/float64(time.Microsecond)/c.offered(), float64(c.peak)/(1<<20), float64(c.allocs)/c.offered(), c.res.Offered, c.res.P99, float64(c.res.Completed)/c.offered(), c.digest)
	}

	failed := map[*cellRun]bool{}
	var checks []error
	for _, c := range cells {
		for _, e := range checkResult(c.res) {
			checks = append(checks, fmt.Errorf("seed %d: %w", c.seed, e))
			failed[c] = true
		}
	}
	// Every cell of a seed must reproduce the seed's first report.
	firstOf := map[int64]*cellRun{}
	for _, c := range cells {
		f := firstOf[c.seed]
		if f == nil {
			firstOf[c.seed] = c
			continue
		}
		if err := sameReport(f, c); err != nil {
			checks = append(checks, err)
			failed[c] = true
		}
	}
	// Replaying the cohort stream must offer exactly what the cell did.
	for _, sd := range seeds {
		c := firstOf[sd]
		if c == nil {
			continue
		}
		n, _, err := s.streamArrivals(sd)
		if err != nil {
			return nil, nil, err
		}
		if s.cell.Workload.Enabled() && n != c.res.Offered {
			checks = append(checks, fmt.Errorf("seed %d: tenancy.arrivals %d != exper.offered %d", sd, n, c.res.Offered))
			failed[c] = true
		}
	}

	m := map[string]float64{}
	var defs []layerMetric
	if traced {
		var topo cluster.Topology
		for i := 0; i < 6; i++ {
			if topo, err = buildPlatforms(s, tr); err != nil {
				return nil, nil, err
			}
		}
		if err := replays(s, topo, seeds[0], untraced[0].res.MeanHostLoad, tr, m); err != nil {
			return nil, nil, err
		}
		if err := layerMetrics(untraced, tracedCells, tr, m); err != nil {
			return nil, nil, err
		}
		if err := tr.write(spansPath, w.name, seeds[0]); err != nil {
			return nil, nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "spans: %d written to %s\n", len(tr.spans), spansPath)
		defs = perLayer
	} else {
		e2eMetrics(cells, setupDur, m)
		for _, d := range endToEnd {
			defs = append(defs, layerMetric{d.Name, d.Unit, d.Better})
		}
		fmt.Fprintf(log, "%-28s %16.6g %s (informational: (offered - completed) / offered)\n", "sim_fail_frac", 1-m["sim_completed_frac"], "ratio")
	}

	res := &result{Correct: len(checks) == 0, Attempted: len(cells), Failed: len(failed), Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, nil, errors.New("metric " + d.Name + " was not measured")
		}
		res.Metrics[d.Name] = metricValue{Value: finite(v), Unit: d.Unit}
		fmt.Fprintf(log, "%-32s %16.6g %s\n", d.Name, v, d.Unit)
	}
	return res, checks, nil
}

// e2eMetrics computes the end-to-end metrics of an untraced run: the
// time metrics are medians over every cell, the simulated ones and the
// peak heap medians over the run's seeds.
func e2eMetrics(cells []*cellRun, setupDur time.Duration, m map[string]float64) {
	m["req_per_wall_s"] = medianOf(cells, func(c *cellRun) float64 { return c.offered() / c.wall.Seconds() })
	m["cpu_us_per_req"] = medianOf(cells, func(c *cellRun) float64 { return float64(c.cpu) / float64(time.Microsecond) / c.offered() })
	// Allocation counts are deterministic per seed, so they pool.
	allocs, offered := 0.0, 0.0
	for _, c := range cells {
		allocs += float64(c.allocs)
		offered += c.offered()
	}
	m["allocs_per_req"] = allocs / offered
	m["setup_s"] = setupDur.Seconds()
	// Per seed: its sim metrics and the mean peak heap of its cells (the
	// live heap is measured at GC ends, so a cell's peak moves in steps
	// with GC timing); then the median over seeds.
	perSeed := map[string][]float64{}
	heap := map[int64][]float64{}
	var seeds []int64
	for _, c := range cells {
		if _, ok := heap[c.seed]; !ok {
			seeds = append(seeds, c.seed)
			for k, v := range simMetrics(c.res) {
				perSeed[k] = append(perSeed[k], v)
			}
		}
		heap[c.seed] = append(heap[c.seed], float64(c.peak)/(1<<20))
	}
	for _, sd := range seeds {
		sum := 0.0
		for _, v := range heap[sd] {
			sum += v
		}
		perSeed["peak_heap_mib"] = append(perSeed["peak_heap_mib"], sum/float64(len(heap[sd])))
	}
	for k, vs := range perSeed {
		m[k] = median(vs)
	}
}
