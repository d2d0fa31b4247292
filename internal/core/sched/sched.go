// Package sched implements Xar-Trek's run-time system: a userspace
// scheduler in a client/server architecture (Section 3.2). The server
// encapsulates the scheduling policy (Algorithm 2) and runs on the x86
// host; a client instance is integrated with each application binary by
// the instrumentation step and consults the server before the selected
// function runs, then reports the observed execution time afterwards so
// the server can refine the threshold table (Algorithm 1).
//
// Two transports exist: direct in-process calls (used inside the
// deterministic simulation) and a newline-delimited JSON protocol over
// TCP (package net), used by the xarsched daemon and integration tests.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xartrek/internal/core/threshold"
	"xartrek/internal/xclbin"
)

// Scheduler errors.
var (
	ErrUnknownApp = errors.New("sched: no threshold record for application")
	ErrNoImage    = errors.New("sched: no XCLBIN image carries the kernel")
)

// Device is the FPGA control surface Algorithm 2 needs: kernel
// availability ("Query Available HW Kernels"), reconfiguration state
// (including what an in-flight reconfiguration will deliver), and
// asynchronous programming. *xrt.Device satisfies it.
type Device interface {
	HasKernel(name string) bool
	Reconfiguring() bool
	// KernelPending reports whether an in-flight reconfiguration will
	// make the named kernel available once it completes.
	KernelPending(name string) bool
	Program(image *xclbin.XCLBIN, done func()) error
}

// LoadFunc samples the x86 CPU load (the number of resident compute
// processes). The paper's server reads it on a timer; sampling at
// decision time observes the identical value in a discrete-event
// world.
type LoadFunc func() int

// Decision is the server's answer to one scheduling request.
type Decision struct {
	// Target is the migration flag value for this invocation.
	Target threshold.Target
	// ReconfigStarted reports that the server began downloading the
	// kernel's XCLBIN while the function continues on a CPU — the
	// latency-hiding strategy of Algorithm 2 lines 9-18.
	ReconfigStarted bool
	// ARMNode is the concrete placement of an ARM-class decision: the
	// identifier from Fleet.ARMNodes (a cluster node index under the
	// experiment platforms, so the paper testbed's ARM server is 1).
	// NewServer's one-node fleet always reports 0, meaning "the single
	// ARM server".
	ARMNode int
	// Device is the index into Fleet.Devices of an FPGA-class
	// decision.
	Device int
}

// Stats aggregates scheduling activity.
type Stats struct {
	Requests         int
	ToX86            int
	ToARM            int
	ToFPGA           int
	ReconfigsStarted int
	// ReconfigsSkippedPending counts background downloads not started
	// because an in-flight reconfiguration on some card will already
	// deliver the kernel — the benign skip.
	ReconfigsSkippedPending int
	// ReconfigsAllBusy counts background downloads deferred because
	// every candidate card was mid-reconfiguration (or rejected the
	// program) — the contention signal a fleet operator sizes the
	// device fleet by, previously indistinguishable from the benign
	// skip.
	ReconfigsAllBusy int
	Reports          int
}

// Add accumulates another server's counters into s (used to aggregate
// a per-entry-node server fleet into one campaign report).
func (s *Stats) Add(o Stats) {
	s.Requests += o.Requests
	s.ToX86 += o.ToX86
	s.ToARM += o.ToARM
	s.ToFPGA += o.ToFPGA
	s.ReconfigsStarted += o.ReconfigsStarted
	s.ReconfigsSkippedPending += o.ReconfigsSkippedPending
	s.ReconfigsAllBusy += o.ReconfigsAllBusy
	s.Reports += o.Reports
}

// Server is the scheduler server. All methods are safe for concurrent
// use; the TCP listener serves each connection from its own goroutine.
type Server struct {
	mu     sync.Mutex
	table  *threshold.Table
	load   LoadFunc
	images []*xclbin.XCLBIN
	stats  Stats
	// fleet is the ARM nodes and FPGA cards placement scores over (see
	// NewFleetServer); NewServer's is the fixed paper testbed.
	fleet *Fleet
	// reconfigScratch is the reusable buffer ReconfigOrder fills, so
	// the decision hot path stays allocation-free (s.mu guards it).
	reconfigScratch []int
	// energy, when set, replaces Algorithm 2 with the EDP policy
	// (see UseEnergyPolicy).
	energy *energyPolicy
}

// NewServer assembles a scheduler server for the fixed paper testbed:
// a fleet server over one ARM node (identifier 0) and at most one
// card.
//
// table is the threshold table from step G; load samples x86LOAD; dev
// controls the FPGA (nil for CPU-only platforms); images are the
// XCLBIN files generated by step F, consulted when a requested kernel
// must be configured.
func NewServer(table *threshold.Table, load LoadFunc, dev Device, images []*xclbin.XCLBIN) *Server {
	fleet := Fleet{ARMNodes: []int{0}}
	if dev != nil {
		fleet.Devices = []Device{dev}
	}
	return NewFleetServer(table, load, fleet, images)
}

// Stats returns a snapshot of scheduling counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Table returns the live threshold table (shared, concurrency-safe via
// the server's methods only).
func (s *Server) Table() *threshold.Table { return s.table }

// Decide runs Algorithm 2 for one request: the application app is
// about to invoke the selected function whose hardware kernel is
// kernel. Classless shorthand for DecideClass.
func (s *Server) Decide(app, kernel string) (Decision, error) {
	return s.DecideClass(app, kernel, "")
}

// DecideClass is Decide carrying the requesting cohort's SLO class
// into the placement context, so class-aware policies (DeadlinePolicy)
// can discriminate critical from batch traffic. The Algorithm 2 class
// decision itself — x86 vs ARM vs FPGA — is unchanged by the SLO
// class; only concrete placement within the class sees it.
func (s *Server) DecideClass(app, kernel, class string) (Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	// Lines 7-8: accept the request, read the threshold table.
	rec, err := s.table.Get(app)
	if err != nil {
		return Decision{}, fmt.Errorf("%w: %s", ErrUnknownApp, app)
	}
	s.stats.Requests++
	if s.energy != nil {
		d := s.decideEDP(rec, kernel)
		s.countDecision(d.Target)
		return d, nil
	}
	x86Load := s.load()
	ctx := PlacementContext{App: app, Kernel: kernel, Class: class, HostLoad: x86Load, Record: rec}
	armThr, fpgaThr := rec.ARMThr, rec.FPGAThr
	// The class is decided before placement: a scan runs only when the
	// load exceeds its class's threshold. Every case below that picks
	// ARM needs x86Load > armThr, and only the cases with
	// x86Load > fpgaThr read hwAvail; at or below the ARM threshold,
	// the no-ARM-node rule (armThr = Never) would change no case.
	var armNode, devIdx int
	var hwAvail bool
	if x86Load > armThr {
		var armOK bool
		if armNode, armOK = s.placeARM(ctx); !armOK {
			// No ARM-class node can take the request: no load makes
			// software migration possible, so the threshold acts as
			// Never.
			armThr = threshold.Never
		}
	}
	if x86Load > fpgaThr {
		devIdx, hwAvail = s.placeDevice(ctx)
	}

	var d Decision
	switch {
	// Lines 9-13: load justifies the FPGA but the kernel is not
	// configured and ARM would not pay either — stay on x86 and
	// reconfigure in the background to hide the download latency.
	case !hwAvail && x86Load <= armThr && x86Load > fpgaThr:
		d.Target = threshold.TargetX86
		d.ReconfigStarted = s.startReconfig(ctx)

	// Lines 14-18: both thresholds exceeded with no kernel — migrate
	// to ARM now, reconfigure meanwhile.
	case !hwAvail && x86Load > armThr && x86Load > fpgaThr:
		d.Target = threshold.TargetARM
		d.ReconfigStarted = s.startReconfig(ctx)

	// Lines 19-21: light load — do not migrate.
	case x86Load <= armThr && x86Load <= fpgaThr:
		d.Target = threshold.TargetX86

	// Lines 22-24: only the ARM threshold is exceeded.
	case x86Load > armThr && x86Load <= fpgaThr:
		d.Target = threshold.TargetARM

	// Lines 25-31: FPGA threshold exceeded and the kernel is
	// resident — pick the target with the smaller threshold (the
	// smaller threshold implies the smaller execution time).
	case hwAvail && x86Load > fpgaThr:
		if fpgaThr < armThr {
			d.Target = threshold.TargetFPGA
		} else {
			d.Target = threshold.TargetARM
		}

	default:
		// Unreachable: the cases above cover the predicate space.
		d.Target = threshold.TargetX86
	}

	switch d.Target {
	case threshold.TargetARM:
		d.ARMNode = armNode
	case threshold.TargetFPGA:
		d.Device = devIdx
	}
	s.countDecision(d.Target)
	return d, nil
}

// countDecision updates the per-target counters (s.mu held).
func (s *Server) countDecision(t threshold.Target) {
	switch t {
	case threshold.TargetX86:
		s.stats.ToX86++
	case threshold.TargetARM:
		s.stats.ToARM++
	case threshold.TargetFPGA:
		s.stats.ToFPGA++
	}
}

// startReconfig begins downloading the XCLBIN that carries the
// requested kernel onto the card the placement policy prefers
// (DefaultPolicy: the lowest-indexed idle device), unless the fleet is
// empty, a download that will deliver this kernel is already in flight
// on some card (counted as ReconfigsSkippedPending), every candidate
// is busy reconfiguring (counted as ReconfigsAllBusy), or the image is
// unknown. It reports whether a download started.
func (s *Server) startReconfig(ctx PlacementContext) bool {
	devs := s.fleet.Devices
	if len(devs) == 0 {
		return false
	}
	img, ok := xclbin.FindKernel(s.images, ctx.Kernel)
	if !ok {
		return false
	}
	for i, dev := range devs {
		// A pending download on an unavailable card will not deliver a
		// usable kernel, so it does not justify skipping.
		if s.fleet.DeviceUp(i) && dev.KernelPending(ctx.Kernel) {
			s.stats.ReconfigsSkippedPending++
			return false
		}
	}
	s.reconfigScratch = s.Policy().ReconfigOrder(ctx, s.fleet, s.reconfigScratch[:0])
	for _, idx := range s.reconfigScratch {
		if idx < 0 || idx >= len(devs) {
			continue
		}
		dev := devs[idx]
		if !s.fleet.DeviceUp(idx) || dev.Reconfiguring() {
			continue
		}
		// Line 11-12/16-17: program the device and re-query
		// availability when it completes (the xrt device exposes fresh
		// availability as soon as the configured image is live).
		if err := dev.Program(img, nil); err != nil {
			continue
		}
		s.stats.ReconfigsStarted++
		return true
	}
	s.stats.ReconfigsAllBusy++
	return false
}

// Report applies Algorithm 1 after a function invocation returned on
// the given target with the observed execution time. The x86 CPU load
// is sampled at report time, matching the client's "record data every
// time a function returns".
func (s *Server) Report(app string, target threshold.Target, exec time.Duration) (threshold.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Reports++
	return s.table.Update(app, target, exec, s.load())
}
