package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"

	"xartrek/internal/exper"
)

// cellRun is one measured execution of a workload's campaign cell.
type cellRun struct {
	seed    int64
	wall    time.Duration
	cpu     time.Duration // process user+sys CPU over the cell
	allocs  uint64        // heap allocations over the cell
	bytes   uint64        // heap bytes allocated over the cell
	gcs     uint32        // GC cycles completed over the cell
	peak    uint64        // peak live heap seen during the cell
	res     exper.ServingResult
	digest  string // SHA-256 of the canonical report JSON
	profile []byte // CPU profile of a traced cell
}

func (c *cellRun) offered() float64 { return float64(c.res.Offered) }

// cpuTime reads the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak live heap (the heap marked live at the
// end of each GC cycle) while a cell runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// runCell executes the workload's cell once at the given seed. A
// traced cell records a CPU profile and a span; an untraced one
// samples the live heap instead.
func runCell(s *setup, seed int64, traced bool, tr *tracer) (*cellRun, error) {
	spec := s.withSeed(seed)
	runtime.GC() // every cell starts from the same heap state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	var sampler *heapSampler
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	} else {
		sampler = startHeapSampler()
	}
	end := tr.begin("exper.RunCampaign")
	cpu0, t0 := cpuTime(), time.Now()
	rep, err := exper.RunCampaign(s.arts, spec, exper.RunOpts{})
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	end()
	c := &cellRun{seed: seed, wall: wall, cpu: cpu}
	if traced {
		pprof.StopCPUProfile()
		c.profile = prof.Bytes()
	} else {
		c.peak = sampler.finish()
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	c.allocs = after.Mallocs - before.Mallocs
	c.bytes = after.TotalAlloc - before.TotalAlloc
	c.gcs = after.NumGC - before.NumGC
	if len(rep.Cells) != 1 || rep.Cells[0].Serving == nil {
		return nil, fmt.Errorf("campaign returned %d cells, want one serving cell", len(rep.Cells))
	}
	c.res = *rep.Cells[0].Serving
	// A fault report points into the cell's fault runtime, which keeps
	// the whole simulated platform reachable; keep a copy instead, so a
	// run's earlier cells do not inflate the heap of later ones.
	if f := c.res.Faults; f != nil {
		fc := *f
		c.res.Faults = &fc
	}
	js, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(js)
	c.digest = hex.EncodeToString(sum[:])
	return c, nil
}

// simMetrics derives the simulated end-to-end metrics of one result.
// These are outputs of the model, identical for identical inputs.
func simMetrics(r exper.ServingResult) map[string]float64 {
	goodput := r.ThroughputPerSec
	if r.Overload != "" {
		goodput = r.GoodputPerSec
	}
	m := map[string]float64{
		"sim_p50_ms":         ms(r.P50),
		"sim_p99_ms":         ms(r.P99),
		"sim_goodput_per_s":  goodput,
		"sim_completed_frac": float64(r.Completed) / float64(r.Offered),
		// Without a deadlined class every request is deadline-free, so
		// attainment is the completed share.
		"sim_slo_attainment": float64(r.Completed) / float64(r.Offered),
	}
	if r.Tenancy != nil {
		for _, c := range r.Tenancy.Classes {
			if c.Deadlined {
				m["sim_slo_attainment"] = c.Attainment
			}
		}
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a non-empty slice (the mean of the middle pair for even
// lengths); 0 for an empty one. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is median over a per-cell quantity.
func medianOf(cells []*cellRun, f func(*cellRun) float64) float64 {
	xs := make([]float64, len(cells))
	for i, c := range cells {
		xs[i] = f(c)
	}
	return median(xs)
}
