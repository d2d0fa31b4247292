// Command xarbench regenerates every table and figure of the paper's
// evaluation (Section 4) on the simulated testbed, and runs declarative
// campaign specs on top of it.
//
// Usage:
//
//	xarbench -all
//	xarbench -table 1                  # Tables 1-4
//	xarbench -figure 6                 # Figures 3-10
//	xarbench -all -runs 3              # cheaper randomized experiments
//	xarbench -campaign spec.json       # run a declarative campaign spec
//	xarbench -campaign spec.json -checkpoint dir/  # resumable campaign
//	xarbench -table 1 -cpuprofile cpu.out -memprofile mem.out
//
// -campaign executes a JSON campaign spec (exper.CampaignSpec): each
// cell selects an experiment kind, topology, mode, policy and load,
// with grid axes (rates × modes × policies × seeds) expanded into
// cells. The cluster-scale serving grid, the placement-policy
// comparison and the bursty MMPP cell are the specs serving.json,
// policies.json and bursty.json under examples/campaigns; a cell's
// options.shards partitions it across per-shard timelines (DESIGN.md
// §13). Cells fan across CPU cores; completed cells stream in
// deterministic spec order.
//
// -checkpoint persists each completed cell into the given directory as
// the campaign runs. Re-running the same spec with the same directory
// after an interruption (crash, kill, ^C) resumes from the completed
// prefix and produces the same output an uninterrupted run would have.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the run
// for `go tool pprof`: CPU samples, and every allocation with the live
// heap after a final collection. Neither changes what is printed.
//
// Absolute times come from this repository's calibrated models, not
// the authors' hardware; EXPERIMENTS.md records paper-vs-measured for
// every row and series.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"xartrek/internal/exper"
	"xartrek/internal/workloads"
)

// seed makes every randomized experiment reproducible.
const seed = 2021 // the paper's year

// maxRuns bounds -runs as the experiment engines bound a sweep's
// repetitions: far past it, a sweep's per-run slices fail to allocate.
const maxRuns = 1 << 16

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "xarbench:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks a flag value the command line cannot run with.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// exitCode maps run's error to the process status: 2 for usage
// errors, as the flag package does, 1 for everything else.
func exitCode(err error) int {
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("xarbench", flag.ContinueOnError)
	table := fs.Int("table", 0, "regenerate one table (1-4)")
	figure := fs.Int("figure", 0, "regenerate one figure (3-10)")
	campaign := fs.String("campaign", "", "execute a JSON campaign spec file (see examples/campaigns)")
	checkpoint := fs.String("checkpoint", "", "checkpoint directory for -campaign (resume an interrupted run)")
	all := fs.Bool("all", false, "regenerate everything")
	runs := fs.Int("runs", 10, "repetitions for randomized experiments")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the run to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err.Error()}
	}

	type experiment struct {
		kind string // "table" or "figure"
		id   int
		fn   func(io.Writer, *exper.Artifacts, int) error
	}
	experiments := []experiment{
		{"table", 1, table1},
		{"table", 2, table2},
		{"table", 3, table3},
		{"table", 4, table4},
		{"figure", 3, figure3},
		{"figure", 4, figure4},
		{"figure", 5, figure5},
		{"figure", 6, figure6},
		{"figure", 7, figure7},
		{"figure", 8, figure8},
		{"figure", 9, figure9},
		{"figure", 10, figure10},
	}
	known := func(kind string, id int) bool {
		return id == 0 || slices.ContainsFunc(experiments, func(e experiment) bool { return e.kind == kind && e.id == id })
	}

	// Flags the command cannot run with fail here, before anything is
	// built or printed.
	usage := func(format string, a ...any) error {
		fs.Usage()
		return usageError{fmt.Sprintf(format, a...)}
	}
	switch {
	case *runs < 1:
		return usage("-runs %d: need at least one run", *runs)
	case *runs > maxRuns:
		return usage("-runs %d: at most %d runs", *runs, maxRuns)
	case !*all && *table == 0 && *figure == 0 && *campaign == "":
		return usage("pick -all, -table N, -figure N, or -campaign spec.json")
	case !known("table", *table):
		return usage("-table %d: no such table (1-4)", *table)
	case !known("figure", *figure):
		return usage("-figure %d: no such figure (3-10)", *figure)
	case *checkpoint != "" && *campaign == "":
		return usage("-checkpoint requires -campaign")
	}

	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			if serr := stop(); serr != nil && err == nil {
				err = fmt.Errorf("-cpuprofile: %w", serr)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			if merr := writeMemProfile(*memprofile); merr != nil && err == nil {
				err = fmt.Errorf("-memprofile: %w", merr)
			}
		}()
	}

	apps, err := workloads.Registry()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "xarbench: building artifacts (compiler steps A-G)...")
	arts, err := exper.BuildArtifacts(apps)
	if err != nil {
		return err
	}

	for _, e := range experiments {
		want := *all ||
			(e.kind == "table" && *table == e.id) ||
			(e.kind == "figure" && *figure == e.id)
		if !want {
			continue
		}
		fmt.Fprintf(out, "\n== %s %d ==\n", e.kind, e.id)
		if err := e.fn(out, arts, *runs); err != nil {
			return fmt.Errorf("%s %d: %w", e.kind, e.id, err)
		}
	}
	if *campaign != "" {
		if err := runCampaignFile(out, arts, *campaign, *checkpoint); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	return nil
}

// errWriter passes writes through to w and keeps the first error, for
// writers such as the CPU profiler that drop their write errors.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if err != nil && e.err == nil {
		e.err = err
	}
	return n, err
}

// startCPUProfile starts profiling the CPU into a new file at path.
// The returned stop ends the profile and reports its first write or
// close error.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &errWriter{w: f}
	if err := pprof.StartCPUProfile(w); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return errors.Join(w.err, f.Close())
	}, nil
}

// writeMemProfile writes the allocation profile to a new file at path:
// every allocation since the program started, and the heap still live
// after a collection.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.Lookup("allocs").WriteTo(f, 0), f.Close())
}

// runCampaignFile executes a declarative campaign spec, streaming each
// completed cell as a report line. Relative trace_file paths resolve
// against the spec file's directory, so checked-in campaigns carry
// their fixtures with them.
func runCampaignFile(out io.Writer, arts *exper.Artifacts, path, checkpoint string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	spec, err := exper.ParseCampaign(f)
	f.Close()
	if err != nil {
		return err
	}
	cells, err := spec.Expand()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\n== campaign %s (%d cells) ==\n", spec.Name, len(cells))
	_, err = exper.RunCampaign(arts, *spec, exper.RunOpts{
		BaseDir:    filepath.Dir(path),
		OnCell:     func(c exper.CellResult) { printCell(out, c, len(cells)) },
		Checkpoint: checkpoint,
	})
	return err
}

// printCell renders one streamed campaign cell.
func printCell(out io.Writer, c exper.CellResult, total int) {
	id := fmt.Sprintf("cell %*d/%d %-11s", len(fmt.Sprint(total)), c.Index+1, total, c.Kind)
	switch {
	case c.Knee != nil:
		r := c.Knee
		fmt.Fprintf(out, "%s %-10s %-12s %-10s knee=%.2f/s probes=%d",
			id, r.Name, c.Mode, r.Policy, r.KneeRatePerSec, len(r.Probes))
		if at := r.AtKnee; at != nil {
			fmt.Fprintf(out, " p99=%dms", ms(at.P99))
			printOverload(out, at)
		}
		fmt.Fprintln(out)
	case c.Serving != nil:
		r := c.Serving
		fmt.Fprintf(out, "%s %-10s %-12s %-10s r=%-6.1f offered=%-6d done=%-6d tput=%.2f/s p50=%dms p95=%dms p99=%dms",
			id, r.Name, c.Mode, r.Policy, c.RatePerSec, r.Offered, r.Completed,
			r.ThroughputPerSec, ms(r.P50), ms(r.P95), ms(r.P99))
		fmt.Fprintf(out, " host_load=%.1f to_arm=%d reconf=%d skip_pending=%d all_busy=%d",
			r.MeanHostLoad, r.Sched.ToARM, r.Sched.ReconfigsStarted, r.Sched.ReconfigsSkippedPending, r.Sched.ReconfigsAllBusy)
		if f := r.Faults; f != nil {
			fmt.Fprintf(out, " avail=%.4f disrupted=%d retried=%d lost=%d fpga_fallback=%d recovery_p99=%dms",
				f.Availability, f.RequestsDisrupted, f.RequestsRetried, f.RequestsLost, f.FPGAFallbacks, ms(f.RecoveryP99))
		}
		printOverload(out, r)
		printTenancy(out, r)
		fmt.Fprintln(out)
	case c.Set != nil:
		r := c.Set
		fmt.Fprintf(out, "%s %-10s %-12s set=%d load=%d avg=%dms\n",
			id, c.Name, c.Mode, r.SetSize, r.Load, ms(r.Average))
	case c.Throughput != nil:
		r := c.Throughput
		fmt.Fprintf(out, "%s %-10s %-12s load=%d images=%d rate=%.2f/s\n",
			id, c.Name, c.Mode, r.Load, r.Images, r.PerSecond)
	case c.Waves != nil:
		r := c.Waves
		fmt.Fprintf(out, "%s %-10s %-12s runs=%d avg=%dms peak=%d\n",
			id, c.Name, c.Mode, r.Runs, ms(r.Average), r.PeakLoad)
	}
}

// printOverload appends a serving result's overload-control and
// fleet-elasticity counters; it prints nothing for cells that ran
// without either feature, keeping pre-elastic campaign output intact.
func printOverload(out io.Writer, r *exper.ServingResult) {
	if r.Overload != "" {
		fmt.Fprintf(out, " overload=%s shed=%d degraded=%d goodput=%.2f/s",
			r.Overload, r.Shed, r.Degraded, r.GoodputPerSec)
	}
	if e := r.Elastic; e != nil {
		fmt.Fprintf(out, " fleet=%d..%d final=%d ups=%d downs=%d recover=%dms",
			e.MinSize, e.MaxSize, e.FinalSize, e.ScaleUps, e.ScaleDowns, ms(time.Duration(e.TimeToRecover)))
	}
}

// printTenancy appends a workload-driven serving result's per-class
// report; single-tenant cells print nothing.
func printTenancy(out io.Writer, r *exper.ServingResult) {
	if r.Tenancy == nil {
		return
	}
	for _, cl := range r.Tenancy.Classes {
		fmt.Fprintf(out, " %s{offered=%d done=%d p99=%dms", cl.Class, cl.Offered, cl.Completed, ms(cl.P99))
		if cl.Deadlined {
			fmt.Fprintf(out, " slo=%.4f", cl.Attainment)
		}
		fmt.Fprint(out, "}")
	}
}

func ms(d time.Duration) int64 { return d.Milliseconds() }

// table1 prints benchmark execution times (vanilla x86, x86→FPGA,
// x86→ARM).
func table1(out io.Writer, arts *exper.Artifacts, _ int) error {
	rows, err := exper.Table1(arts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %12s %16s %15s\n", "Benchmark", "Vanilla(ms)", "XarTrek FPGA(ms)", "XarTrek ARM(ms)")
	for _, r := range rows {
		fmt.Fprintf(out, "%-12s %12d %16d %15d\n", r.App, ms(r.X86), ms(r.X86FPGA), ms(r.X86ARM))
	}
	return nil
}

// table2 prints the threshold estimation output.
func table2(out io.Writer, arts *exper.Artifacts, _ int) error {
	fmt.Fprintf(out, "%-12s %-14s %8s %8s\n", "Benchmark", "HW Kernel", "FPGATHR", "ARMTHR")
	for _, r := range exper.Table2(arts) {
		fmt.Fprintf(out, "%-12s %-14s %8d %8d\n", r.App, r.Kernel, r.FPGAThr, r.ARMThr)
	}
	return nil
}

// table3 prints the CPU-load definition (encoded in cluster.LoadClass).
func table3(out io.Writer, _ *exper.Artifacts, _ int) error {
	fmt.Fprintln(out, "CPU Load   Range of number of processes (6 x86 + 96 ARM cores)")
	fmt.Fprintln(out, "low        #processes < 6")
	fmt.Fprintln(out, "medium     6 <= #processes <= 102")
	fmt.Fprintln(out, "high       #processes > 102")
	return nil
}

// table4 prints the BFS x86-vs-FPGA study.
func table4(out io.Writer, _ *exper.Artifacts, _ int) error {
	rows, err := exper.Table4([]int{1000, 2000, 3000, 4000, 5000})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%8s %12s %12s\n", "nodes", "x86(ms)", "FPGA(ms)")
	for _, r := range rows {
		fmt.Fprintf(out, "%8d %12.2f %12.2f\n", r.Nodes,
			float64(r.X86)/float64(time.Millisecond),
			float64(r.FPGA)/float64(time.Millisecond))
	}
	return nil
}

// fixedLoad renders one of Figures 3-5.
func fixedLoad(out io.Writer, arts *exper.Artifacts, sizes []int, load, runs int) error {
	pts, err := exper.RunFixedLoadSweep(arts, sizes, exper.DefaultModes(), load, runs, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%8s %-14s %12s\n", "set", "mode", "avg(ms)")
	for _, p := range pts {
		fmt.Fprintf(out, "%8d %-14s %12d\n", p.SetSize, p.Mode, ms(p.Average))
	}
	return nil
}

func figure3(out io.Writer, arts *exper.Artifacts, runs int) error {
	return fixedLoad(out, arts, []int{1, 2, 3, 4, 5}, 0, runs)
}

func figure4(out io.Writer, arts *exper.Artifacts, runs int) error {
	return fixedLoad(out, arts, []int{5, 10, 15, 20, 25}, 60, runs)
}

func figure5(out io.Writer, arts *exper.Artifacts, runs int) error {
	return fixedLoad(out, arts, []int{5, 10, 15, 20, 25}, 120, runs)
}

// figure6 prints face-detection throughput vs background load.
func figure6(out io.Writer, arts *exper.Artifacts, _ int) error {
	fd, err := workloads.NewFaceDet320()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%8s %-14s %8s %10s\n", "load", "mode", "images", "img/s")
	for _, load := range []int{0, 25, 50, 75, 100} {
		for _, mode := range []exper.Mode{exper.ModeXarTrek, exper.ModeVanillaX86, exper.ModeVanillaFPGA} {
			r, err := exper.RunThroughput(arts, fd, mode, load, 60*time.Second, 1000)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%8d %-14s %8d %10.2f\n", load, mode, r.Images, r.PerSecond)
		}
	}
	return nil
}

// figure7 prints the periodic-workload average execution times.
func figure7(out io.Writer, arts *exper.Artifacts, _ int) error {
	fmt.Fprintf(out, "%-14s %12s %8s %10s\n", "mode", "avg(ms)", "runs", "peak load")
	for _, mode := range []exper.Mode{exper.ModeXarTrek, exper.ModeVanillaX86, exper.ModeVanillaFPGA} {
		r, err := exper.RunWaves(arts, mode, 30, 20, 30*time.Second, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-14s %12d %8d %10d\n", mode, ms(r.Average), r.Runs, r.PeakLoad)
	}
	return nil
}

// figure8 prints throughput under the periodic load wave. The three
// modes are independent testbeds, so they run concurrently.
func figure8(out io.Writer, arts *exper.Artifacts, _ int) error {
	fd, err := workloads.NewFaceDet320()
	if err != nil {
		return err
	}
	modes := []exper.Mode{exper.ModeXarTrek, exper.ModeVanillaX86, exper.ModeVanillaFPGA}
	results, err := exper.RunPeriodicThroughputModes(arts, fd, modes, 10, 120, 10, 60*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-14s %10s\n", "mode", "img/s avg")
	for i, mode := range modes {
		fmt.Fprintf(out, "%-14s %10.2f\n", mode, results[i].Average)
	}
	return nil
}

// figure9 prints the profitability study.
func figure9(out io.Writer, arts *exper.Artifacts, _ int) error {
	pts, err := exper.RunProfitabilityStudy(arts,
		[]int{0, 10, 30, 50, 70, 90, 100},
		[]exper.Mode{exper.ModeXarTrek, exper.ModeVanillaX86}, 10, 120)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%8s %-14s %12s\n", "%CG-A", "mode", "avg(ms)")
	for _, p := range pts {
		fmt.Fprintf(out, "%8d %-14s %12d\n", p.PercentCGA, p.Mode, ms(p.Average))
	}
	return nil
}

// figure10 prints binary sizes per development process.
func figure10(out io.Writer, arts *exper.Artifacts, _ int) error {
	rows, err := exper.BinarySizes(arts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-12s %14s %16s %12s\n", "Benchmark", "x86+FPGA(B)", "Popcorn x86+ARM(B)", "Xar-Trek(B)")
	for _, r := range rows {
		fmt.Fprintf(out, "%-12s %14d %16d %12d\n", r.App, r.X86FPGA, r.PopcornX86ARM, r.XarTrek)
	}
	return nil
}
