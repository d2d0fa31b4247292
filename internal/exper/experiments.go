package exper

import (
	"fmt"
	"math/rand"
	"time"

	"xartrek/internal/core/threshold"
	"xartrek/internal/par"
	"xartrek/internal/workloads"
)

// DefaultModes are the regimes the paper compares in Figures 3-5.
func DefaultModes() []Mode {
	return []Mode{ModeXarTrek, ModeVanillaX86, ModeVanillaFPGA, ModeVanillaARM}
}

// background keeps a target number of MG-B load-generator processes
// resident on the x86 host, respawning instances as they finish — the
// paper's "running simultaneously the NPB MG-B application n times".
type background struct {
	p       *Platform
	app     *workloads.App
	target  int
	active  int
	stopped bool
}

// newBackground starts n load generators.
func newBackground(p *Platform, n int) (*background, error) {
	mg, err := workloads.NewMGB()
	if err != nil {
		return nil, fmt.Errorf("exper: background: %w", err)
	}
	b := &background{p: p, app: mg, target: n}
	b.top()
	return b, nil
}

// top spawns instances until the target is met.
func (b *background) top() {
	for b.active < b.target && !b.stopped {
		b.active++
		b.p.LaunchApp(b.app, ModeVanillaX86, b.p.Sim.Now(), func(RunResult) {
			b.active--
			b.top()
		})
	}
}

// setTarget retargets the generator (used by periodic workloads).
func (b *background) setTarget(n int) {
	b.target = n
	b.top()
}

// stop lets in-flight instances drain without respawning.
func (b *background) stop() { b.stopped = true }

// SetResult is one fixed-workload measurement (a bar in Figures 3-5).
type SetResult struct {
	Mode    Mode
	SetSize int
	// Load is the total process count (foreground + background).
	Load    int
	Average time.Duration
	Runs    []RunResult
}

// RunSet launches the application set at time zero under the mode,
// with enough MG-B background processes to reach totalLoad (0 leaves
// the load at the set size), and reports the set's average execution
// time.
func RunSet(arts *Artifacts, set []*workloads.App, mode Mode, totalLoad int) (SetResult, error) {
	return RunSetOpts(arts, set, mode, totalLoad, Options{})
}

// RunSetOpts is RunSet under ablation options: the fixed-workload
// engine, which the campaign runner's set cells call too.
func RunSetOpts(arts *Artifacts, set []*workloads.App, mode Mode, totalLoad int, opts Options) (SetResult, error) {
	p := NewPlatformOpts(arts, opts)
	res := SetResult{Mode: mode, SetSize: len(set), Load: totalLoad}
	if res.Load < len(set) {
		res.Load = len(set)
	}

	var bg *background
	if n := res.Load - len(set); n > 0 {
		var err error
		bg, err = newBackground(p, n)
		if err != nil {
			return SetResult{}, err
		}
	}

	remaining := len(set)
	for _, app := range set {
		p.LaunchApp(app, mode, 0, func(r RunResult) {
			res.Runs = append(res.Runs, r)
			remaining--
			if remaining == 0 && bg != nil {
				bg.stop()
			}
		})
	}
	p.Run()

	var total time.Duration
	for _, r := range res.Runs {
		total += r.Elapsed()
	}
	if len(res.Runs) > 0 {
		res.Average = total / time.Duration(len(res.Runs))
	}
	return res, nil
}

// RandomSet draws n applications uniformly from the pool, matching the
// paper's selection-bias avoidance.
func RandomSet(rng *rand.Rand, pool []*workloads.App, n int) []*workloads.App {
	out := make([]*workloads.App, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// FixedLoadPoint is one (set size, mode) cell of Figures 3-5, averaged
// over the requested number of runs with freshly randomised sets.
type FixedLoadPoint struct {
	SetSize int
	Mode    Mode
	Average time.Duration
}

// RunFixedLoadSweep reproduces the Figure 3-5 experiments: for each
// set size, draw `runs` random application sets and measure each
// mode's average execution time at the given total load (0 = no
// background, Figure 3's low-load regime).
//
// Every (set, mode) measurement is an isolated discrete-event
// simulation, so the sweep fans them across a bounded worker pool.
// The random sets are drawn up front with the per-size RNG — every
// mode sees the same sets, so mode comparisons stay paired exactly as
// in the paper — and results land in index-addressed slots, making the
// output byte-identical for a fixed seed regardless of GOMAXPROCS.
func RunFixedLoadSweep(arts *Artifacts, setSizes []int, modes []Mode, totalLoad, runs int, seed int64) ([]FixedLoadPoint, error) {
	if err := checkRuns(runs); err != nil {
		return nil, err
	}
	sets := make([][][]*workloads.App, len(setSizes))
	for si, size := range setSizes {
		// One RNG per size: every mode sees the same random sets, so
		// mode comparisons are paired exactly as in the paper.
		rng := rand.New(rand.NewSource(seed + int64(size)))
		sets[si] = make([][]*workloads.App, runs)
		for i := range sets[si] {
			sets[si][i] = RandomSet(rng, arts.Apps, size)
		}
	}

	nm := len(modes)
	averages := make([]time.Duration, len(setSizes)*nm*runs)
	err := par.ForEach(len(averages), func(j int) error {
		si := j / (nm * runs)
		mi := (j / runs) % nm
		ri := j % runs
		r, err := RunSet(arts, sets[si][ri], modes[mi], totalLoad)
		if err != nil {
			return err
		}
		averages[j] = r.Average
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]FixedLoadPoint, 0, len(setSizes)*nm)
	for si, size := range setSizes {
		for mi, mode := range modes {
			var total time.Duration
			for ri := 0; ri < runs; ri++ {
				total += averages[(si*nm+mi)*runs+ri]
			}
			out = append(out, FixedLoadPoint{
				SetSize: size,
				Mode:    mode,
				Average: total / time.Duration(runs),
			})
		}
	}
	return out, nil
}

// ThroughputResult is one bar of Figures 6 and 8.
type ThroughputResult struct {
	Mode Mode
	// Load is the background process count.
	Load int
	// Images is the number of images processed before the deadline.
	Images int
	// PerSecond is Images divided by the run duration.
	PerSecond float64
}

// LaunchThroughput runs the modified multi-image face-detection
// application: it processes up to maxImages images, one selected-
// function invocation each. At the deadline (or once maxImages
// complete, whichever comes first) done receives the processed count —
// exactly the paper's "run for 60 seconds, then count" protocol; an
// image still in flight at the deadline does not count.
func (p *Platform) LaunchThroughput(app *workloads.App, mode Mode, at, duration time.Duration, maxImages int, done func(int)) {
	p.Sim.At(at, func() {
		if mode == ModeXarTrek && !p.opts.NoPreconfig {
			p.preconfigure(app)
		}
		processed := 0
		var kernelTime time.Duration
		lastTarget := threshold.TargetX86
		reported := false
		report := func() {
			if reported {
				return
			}
			reported = true
			// __xar_sched_fini fires once, immediately before the
			// application terminates (Section 3.3): it reports the
			// observed per-invocation time so Algorithm 1 refines the
			// thresholds between runs, not between images.
			if mode == ModeXarTrek && app.Migratable && processed > 0 && !p.opts.StaticThresholds {
				mean := kernelTime / time.Duration(processed)
				_, _ = p.Server.Report(app.Name, lastTarget, mean)
			}
			if done != nil {
				done(processed)
			}
		}
		p.Sim.After(duration, report)

		var next func()
		next = func() {
			if reported {
				return
			}
			if processed >= maxImages {
				report()
				return
			}
			// Read the next image file (the modified benchmark reads
			// PGM files instead of an embedded image), then invoke.
			p.x86Exec(app.NonKernel, func() {
				start := p.Sim.Now()
				p.runKernel(nil, p.Cluster.X86, app, mode, "", func(target threshold.Target) {
					processed++
					kernelTime += p.Sim.Now() - start
					lastTarget = target
					next()
				})
			})
		}
		next()
	})
}

// RunThroughput measures face-detection throughput under a fixed
// background load (one bar of Figure 6): the images processed within
// duration, at most maxImages of them (≤ 0 means no cap).
func RunThroughput(arts *Artifacts, app *workloads.App, mode Mode, load int, duration time.Duration, maxImages int) (ThroughputResult, error) {
	return RunThroughputOpts(arts, app, mode, load, duration, maxImages, Options{})
}

// RunThroughputOpts is RunThroughput under ablation options: the
// throughput engine, which the campaign runner's throughput cells call
// too.
func RunThroughputOpts(arts *Artifacts, app *workloads.App, mode Mode, load int, duration time.Duration, maxImages int, opts Options) (ThroughputResult, error) {
	if maxImages <= 0 {
		maxImages = 1 << 30
	}
	p := NewPlatformOpts(arts, opts)
	var bg *background
	if load > 0 {
		var err error
		bg, err = newBackground(p, load)
		if err != nil {
			return ThroughputResult{}, err
		}
	}
	res := ThroughputResult{Mode: mode, Load: load}
	p.LaunchThroughput(app, mode, 0, duration, maxImages, func(n int) {
		res.Images = n
		if bg != nil {
			bg.stop()
		}
	})
	p.RunFor(duration)
	res.PerSecond = float64(res.Images) / duration.Seconds()
	return res, nil
}

// WaveResult is Figure 7's measurement: the average execution time of
// every application launched by a periodic wave pattern.
type WaveResult struct {
	Mode    Mode
	Runs    int
	Average time.Duration
	// PeakLoad is the highest x86 process count observed at any
	// wave boundary.
	PeakLoad int
}

// RunWaves reproduces the Figure 7 experiment: `waves` sets of
// `perWave` randomly drawn applications, launched `interval` apart.
// Sets pile up faster than they drain, so the load swings between
// medium and high exactly as in the paper's 43-minute run.
func RunWaves(arts *Artifacts, mode Mode, waves, perWave int, interval time.Duration, seed int64) (WaveResult, error) {
	return RunWavesOpts(arts, mode, waves, perWave, interval, seed, Options{})
}

// RunWavesOpts is RunWaves under ablation options: the periodic-wave
// engine, which the campaign runner's waves cells call too.
func RunWavesOpts(arts *Artifacts, mode Mode, waves, perWave int, interval time.Duration, seed int64, opts Options) (WaveResult, error) {
	p := NewPlatformOpts(arts, opts)
	rng := rand.New(rand.NewSource(seed))
	res := WaveResult{Mode: mode}

	var total time.Duration
	for w := 0; w < waves; w++ {
		at := time.Duration(w) * interval
		set := RandomSet(rng, arts.Apps, perWave)
		for _, app := range set {
			p.LaunchApp(app, mode, at, func(r RunResult) {
				total += r.Elapsed()
				res.Runs++
			})
		}
		p.Sim.At(at, func() {
			if l := p.Cluster.X86.Load(); l > res.PeakLoad {
				res.PeakLoad = l
			}
		})
	}
	p.Run()
	if res.Runs > 0 {
		res.Average = total / time.Duration(res.Runs)
	}
	return res, nil
}

// PeriodicThroughputResult is one mode's Figure 8 bar.
type PeriodicThroughputResult struct {
	Mode Mode
	// PerRun is the images/second of each of the face-detection runs
	// along the load wave.
	PerRun []float64
	// Average is the mean throughput across runs.
	Average float64
}

// RunPeriodicThroughput reproduces Figure 8: the background load
// follows a triangular wave between minLoad and maxLoad while the
// multi-image face-detection application executes `runs` back-to-back
// 60-second runs; each run's throughput is recorded.
func RunPeriodicThroughput(arts *Artifacts, app *workloads.App, mode Mode, minLoad, maxLoad, runs int, runDur time.Duration) (PeriodicThroughputResult, error) {
	if err := checkRuns(runs); err != nil {
		return PeriodicThroughputResult{}, err
	}
	p := NewPlatform(arts)
	bg, err := newBackground(p, minLoad)
	if err != nil {
		return PeriodicThroughputResult{}, err
	}

	res := PeriodicThroughputResult{Mode: mode, PerRun: make([]float64, runs)}
	for i := 0; i < runs; i++ {
		at := time.Duration(i) * runDur
		// Triangular load profile: rise to maxLoad at the midpoint,
		// fall back to minLoad.
		level := triangle(i, runs, minLoad, maxLoad)
		idx := i
		p.Sim.At(at, func() { bg.setTarget(level) })
		p.LaunchThroughput(app, mode, at, runDur, 1<<30, func(n int) {
			res.PerRun[idx] = float64(n) / runDur.Seconds()
		})
	}
	end := time.Duration(runs) * runDur
	p.Sim.At(end, func() { bg.stop() })
	p.RunFor(end)

	var sum float64
	for _, v := range res.PerRun {
		sum += v
	}
	res.Average = sum / float64(runs)
	return res, nil
}

// RunPeriodicThroughputModes runs the Figure 8 experiment once per
// mode. One mode's load wave and its back-to-back runs share a single
// simulation and stay strictly sequential, but the modes themselves
// are independent testbeds, so they fan across the worker pool; the
// result slice is ordered exactly like modes, independent of
// GOMAXPROCS.
func RunPeriodicThroughputModes(arts *Artifacts, app *workloads.App, modes []Mode, minLoad, maxLoad, runs int, runDur time.Duration) ([]PeriodicThroughputResult, error) {
	if err := checkRuns(runs); err != nil {
		return nil, err
	}
	out := make([]PeriodicThroughputResult, len(modes))
	err := par.ForEach(len(modes), func(i int) error {
		r, err := RunPeriodicThroughput(arts, app, modes[i], minLoad, maxLoad, runs, runDur)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// maxProcesses bounds the processes one figure-class cell launches (a
// set cell's set_size and total_load, a throughput cell's load, a waves
// cell's waves × per_wave) and a sweep's repetition count. The paper's
// largest cell launches 600 (Figure 7: 30 waves of 20); far past the
// bound, the engines' per-process slices fail to allocate or exhaust
// memory.
const maxProcesses = 1 << 16

// checkRuns rejects a repetition count the sweeps cannot average over
// or that exceeds maxProcesses.
func checkRuns(runs int) error {
	if runs < 1 {
		return fmt.Errorf("exper: runs %d: need at least one run", runs)
	}
	if runs > maxProcesses {
		return fmt.Errorf("exper: runs %d exceeds %d", runs, maxProcesses)
	}
	return nil
}

// triangle maps run index i of n onto a rise-and-fall load profile.
func triangle(i, n, lo, hi int) int {
	if n <= 1 {
		return hi
	}
	half := float64(n-1) / 2
	frac := 1 - abs(float64(i)-half)/half
	return lo + int(frac*float64(hi-lo)+0.5)
}

// abs is math.Abs without the import.
func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// MixPoint is one Figure 9 measurement: the average execution time of
// a ten-application CG-A/Digit2000 mix at a fixed 120-process load.
type MixPoint struct {
	// PercentCGA is the share of non-compute-intensive (CG-A)
	// applications in the set.
	PercentCGA int
	Mode       Mode
	Average    time.Duration
}

// RunProfitabilityStudy reproduces Figure 9: seven CG-A:Digit2000
// mixes from 0% to 100% CG-A in a ten-application set, run under
// Xar-Trek and Vanilla/x86 at a fixed total load.
func RunProfitabilityStudy(arts *Artifacts, percents []int, modes []Mode, setSize, totalLoad int) ([]MixPoint, error) {
	cga, err := findApp(arts.Apps, "CG-A")
	if err != nil {
		return nil, err
	}
	d2000, err := findApp(arts.Apps, "Digit2000")
	if err != nil {
		return nil, err
	}

	sets := make([][]*workloads.App, len(percents))
	for pi, pct := range percents {
		nCGA := (pct*setSize + 50) / 100
		set := make([]*workloads.App, 0, setSize)
		for i := 0; i < setSize; i++ {
			if i < nCGA {
				set = append(set, cga)
			} else {
				set = append(set, d2000)
			}
		}
		sets[pi] = set
	}

	// Each (mix, mode) cell is an isolated simulation; fan them across
	// the worker pool with index-addressed results so the output order
	// matches the sequential sweep.
	out := make([]MixPoint, len(percents)*len(modes))
	err = par.ForEach(len(out), func(j int) error {
		pi, mi := j/len(modes), j%len(modes)
		r, err := RunSet(arts, sets[pi], modes[mi], totalLoad)
		if err != nil {
			return err
		}
		out[j] = MixPoint{PercentCGA: percents[pi], Mode: modes[mi], Average: r.Average}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// findApp locates an application by name in the artifact set.
func findApp(apps []*workloads.App, name string) (*workloads.App, error) {
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("exper: app %s not in artifact set", name)
}
