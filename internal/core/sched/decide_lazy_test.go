package sched

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"xartrek/internal/core/threshold"
	"xartrek/internal/xclbin"
)

// eagerDecideClass is the reference for DecideClass: the order that
// ran both placement scans on every request and only then compared the
// host load with the thresholds.
func eagerDecideClass(s *Server, app, kernel, class string) (Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, err := s.table.Get(app)
	if err != nil {
		return Decision{}, err
	}
	s.stats.Requests++
	x86Load := s.load()
	ctx := PlacementContext{App: app, Kernel: kernel, Class: class, HostLoad: x86Load, Record: rec}
	armThr, fpgaThr := rec.ARMThr, rec.FPGAThr
	armNode, armOK := s.placeARM(ctx)
	if !armOK {
		armThr = threshold.Never
	}
	devIdx, hwAvail := s.placeDevice(ctx)
	var d Decision
	switch {
	case !hwAvail && x86Load <= armThr && x86Load > fpgaThr:
		d.Target = threshold.TargetX86
		d.ReconfigStarted = s.startReconfig(ctx)
	case !hwAvail && x86Load > armThr && x86Load > fpgaThr:
		d.Target = threshold.TargetARM
		d.ReconfigStarted = s.startReconfig(ctx)
	case x86Load <= armThr && x86Load <= fpgaThr:
		d.Target = threshold.TargetX86
	case x86Load > armThr && x86Load <= fpgaThr:
		d.Target = threshold.TargetARM
	case hwAvail && x86Load > fpgaThr:
		if fpgaThr < armThr {
			d.Target = threshold.TargetFPGA
		} else {
			d.Target = threshold.TargetARM
		}
	default:
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

// countingPolicy counts the placement scans a server asks its policy
// for.
type countingPolicy struct {
	PlacementPolicy
	arm, dev int
}

func (c *countingPolicy) PickARMNode(ctx PlacementContext, f *Fleet) (int, bool) {
	c.arm++
	return c.PlacementPolicy.PickARMNode(ctx, f)
}

func (c *countingPolicy) PickDevice(ctx PlacementContext, f *Fleet) (int, bool) {
	c.dev++
	return c.PlacementPolicy.PickDevice(ctx, f)
}

// lazyCase is one seeded random scheduling situation: thresholds, a
// fleet with availability masks and card states, a policy and a short
// run of host loads and SLO classes.
type lazyCase struct {
	fpgaThr, armThr int
	armLoads        []int
	nodeUp          []bool
	cards           []fakeDevice
	cardUp          []bool
	withImage       bool
	policy          int
	pin             int
	loads           []int
	classes         []string
}

// randThreshold draws a threshold: 0, Never, or a load in [1, 40].
func randThreshold(rng *rand.Rand) int {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return threshold.Never
	}
	return 1 + rng.Intn(40)
}

func newLazyCase(rng *rand.Rand) lazyCase {
	c := lazyCase{
		fpgaThr:   randThreshold(rng),
		armThr:    randThreshold(rng),
		withImage: rng.Intn(4) > 0,
		policy:    rng.Intn(4),
	}
	for n := rng.Intn(5); n > 0; n-- {
		c.armLoads = append(c.armLoads, rng.Intn(6))
		c.nodeUp = append(c.nodeUp, rng.Intn(4) > 0)
	}
	for n := rng.Intn(4); n > 0; n-- {
		card := fakeDevice{
			kernels:       map[string]bool{"KNL": rng.Intn(3) == 0},
			pending:       map[string]bool{"KNL": rng.Intn(4) == 0},
			reconfiguring: rng.Intn(3) == 0,
		}
		if rng.Intn(8) == 0 {
			card.programErr = errors.New("program rejected")
		}
		c.cards = append(c.cards, card)
		c.cardUp = append(c.cardUp, rng.Intn(4) > 0)
	}
	c.pin = rng.Intn(len(c.cards)+2) - 1
	for n := 1 + rng.Intn(4); n > 0; n-- {
		// Loads on both sides of each threshold, and at them.
		load := rng.Intn(46)
		switch rng.Intn(4) {
		case 0:
			load = c.fpgaThr
		case 1:
			load = c.armThr
		}
		if load == threshold.Never {
			load = 45
		}
		c.loads = append(c.loads, load)
		c.classes = append(c.classes, []string{"", "critical", "batch"}[rng.Intn(3)])
	}
	return c
}

// server builds one side's server over its own copy of the case's
// fleet, returning the counting policy and the cards.
func (c lazyCase) server(t *testing.T, load *int, image *xclbin.XCLBIN) (*Server, *countingPolicy, []*fakeDevice) {
	tab := threshold.NewTable()
	if err := tab.Add(threshold.Record{
		App: "app", Kernel: "KNL", FPGAThr: c.fpgaThr, ARMThr: c.armThr,
		X86Exec:  175 * time.Millisecond,
		ARMExec:  642 * time.Millisecond,
		FPGAExec: 332 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	nodes := make([]int, len(c.armLoads))
	row := make([]float64, len(c.armLoads))
	idx := NewLoadIndex(len(c.armLoads))
	up := map[int]bool{}
	for i, l := range c.armLoads {
		nodes[i] = 10 + 3*i
		row[i] = float64(len(c.armLoads)-i) * 0.01
		idx.Add(i, l)
		up[nodes[i]] = c.nodeUp[i]
	}
	cards := make([]*fakeDevice, len(c.cards))
	devs := make([]Device, len(c.cards))
	for i, card := range c.cards {
		card.kernels = map[string]bool{"KNL": card.kernels["KNL"]}
		card.pending = map[string]bool{"KNL": card.pending["KNL"]}
		cards[i] = &card
		devs[i] = &card
	}
	policy := &countingPolicy{PlacementPolicy: []PlacementPolicy{
		DefaultPolicy{}, LinkAwarePolicy{}, NewAffinityPolicy(map[string]int{"KNL": c.pin}), DeadlinePolicy{},
	}[c.policy]}
	var images []*xclbin.XCLBIN
	if c.withImage {
		images = []*xclbin.XCLBIN{image}
	}
	srv := NewFleetServer(tab, func() int { return *load }, Fleet{
		ARMNodes:        nodes,
		Loads:           idx,
		NodeCores:       func(id int) int { return 1 + id%3 },
		MigrationRow:    func(string) []float64 { return row },
		LinkQueue:       func(id int) int { return id % 2 },
		Devices:         devs,
		Policy:          policy,
		NodeAvailable:   func(id int) bool { return up[id] },
		DeviceAvailable: func(i int) bool { return c.cardUp[i] },
	}, images)
	return srv, policy, cards
}

// TestLazyDecideMatchesEager runs seeded random situations through
// DecideClass and through the eager reference, each on its own
// identical fleet, and requires the same Decision, Stats and Program
// calls. The counting policy on the lazy side must see no PickARMNode
// or PickDevice call at or below both thresholds, and exactly one call
// of a kind above that kind's threshold (when the fleet has a
// candidate of that kind to scan).
func TestLazyDecideMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	image := imageWith(t, "KNL")
	for n := 0; n < 3000; n++ {
		c := newLazyCase(rng)
		var load int
		lazy, counts, lazyCards := c.server(t, &load, image)
		eager, _, eagerCards := c.server(t, &load, image)
		for i, l := range c.loads {
			load = l
			arm, dev := counts.arm, counts.dev
			got, err := lazy.DecideClass("app", "KNL", c.classes[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := eagerDecideClass(eager, "app", "KNL", c.classes[i])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("case %d decision %d (%+v, load %d, class %q): lazy %+v, eager %+v", n, i, c, l, c.classes[i], got, want)
			}
			if got, want := lazy.Stats(), eager.Stats(); got != want {
				t.Fatalf("case %d decision %d: lazy stats %+v, eager %+v", n, i, got, want)
			}
			if got, want := programs(lazyCards), programs(eagerCards); !slices.Equal(got, want) {
				t.Fatalf("case %d decision %d: lazy programmed cards %v times, eager %v", n, i, got, want)
			}
			wantARM := btoi(l > c.armThr && len(c.armLoads) > 0)
			wantDev := btoi(l > c.fpgaThr && len(c.cards) > 0)
			if counts.arm-arm != wantARM || counts.dev-dev != wantDev {
				t.Fatalf("case %d decision %d (load %d, thresholds fpga %d arm %d): %d ARM and %d device scans, want %d and %d",
					n, i, l, c.fpgaThr, c.armThr, counts.arm-arm, counts.dev-dev, wantARM, wantDev)
			}
		}
	}
}

// programs lists how many times each card was programmed; every
// program carries the one image, so the counts are the calls.
func programs(cards []*fakeDevice) []int {
	out := make([]int, len(cards))
	for i, c := range cards {
		out[i] = len(c.programs)
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
