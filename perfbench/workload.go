package main

import (
	"bytes"
	"embed"
	"fmt"
	"runtime"
	"time"

	"xartrek/internal/exper"
	"xartrek/internal/workloads"
)

// The benchmark keeps its own copies of the campaign specs, so an edit
// under examples/ cannot change what it measures.
//
//go:embed specs/*.json
var specFS embed.FS

// workload is one benchmark input: a one-cell serving campaign.
type workload struct {
	name string
	why  string
	spec []byte
}

var workloadTable = []workload{
	{name: "rack256-1m", why: "single timeline, ~1M Poisson requests: entry pick over 64 hosts and Algorithm 2 over 192 ARM nodes per request; no shards, faults or tenancy"},
	{name: "rack1024-sharded", why: "~4.2M requests over 8 shards: PartitionTopology, the par.ForEach fan-out and the K-way sketch merge, with small per-shard scans"},
	{name: "tenants-churn", why: "cohort arrivals, exact latency slice, deadline policy, node and FPGA churn with retries, admission shedding and split images"},
}

func init() {
	for i := range workloadTable {
		b, err := specFS.ReadFile("specs/" + workloadTable[i].name + ".json")
		if err != nil {
			panic(err) // the embed pattern guarantees every listed spec
		}
		workloadTable[i].spec = b
	}
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloadTable {
		if workloadTable[i].name == name {
			return &workloadTable[i], nil
		}
		names = append(names, workloadTable[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// setup is everything a cell needs before it runs: the artifact sets
// and the parsed, expanded one-cell campaign.
type setup struct {
	arts, split *exper.Artifacts // split is nil unless the cell uses split images
	spec        *exper.CampaignSpec
	cell        exper.CellSpec
}

// prepare builds the artifacts (the full compile pipeline) and parses
// and expands the workload's spec. The spans, when tr is non-nil,
// cover each public call.
func (w *workload) prepare(tr *tracer) (*setup, error) {
	var s setup
	end := tr.begin("exper.BuildArtifacts")
	apps, err := workloads.Registry()
	if err == nil {
		s.arts, err = exper.BuildArtifacts(apps)
	}
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("exper.ParseCampaign")
	s.spec, err = exper.ParseCampaign(bytes.NewReader(w.spec))
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin("exper.CampaignSpec.Expand")
	cells, err := s.spec.Expand()
	end()
	if err != nil {
		return nil, err
	}
	if len(cells) != 1 || len(s.spec.Cells) != 1 {
		return nil, fmt.Errorf("workload %s: spec must hold exactly one cell", w.name)
	}
	s.cell = cells[0]
	if s.cell.SplitImages {
		end = tr.begin("exper.BuildArtifactsSplitImages")
		s.split, err = exper.BuildArtifactsSplitImages(apps)
		end()
		if err != nil {
			return nil, err
		}
	}
	return &s, nil
}

// withSeed returns the workload's campaign with the cell seed replaced.
func (s *setup) withSeed(seed int64) exper.CampaignSpec {
	spec := *s.spec
	spec.Cells = append([]exper.CellSpec(nil), s.spec.Cells...)
	spec.Cells[0].Seed = seed
	return spec
}

// seedsPerRun is how many workload seeds one invocation runs: the
// given seed and two derived from it. The simulated metrics are medians
// over them, so one unlucky realization (a fault storm, say) cannot
// swing a run.
const seedsPerRun = 3

// cellSeeds derives the run's workload seeds from --seed: the seed
// itself first, then splitmix64 mixes of it, kept positive.
func cellSeeds(seed int64) []int64 {
	out := []int64{seed}
	x := uint64(seed)
	for len(out) < seedsPerRun {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out = append(out, int64(z>>33)+1)
	}
	return out
}

// timeSetups runs prepare n times from a collected heap and returns
// the median wall time with the last setup.
func (w *workload) timeSetups(n int, tr *tracer) (time.Duration, *setup, error) {
	durs := make([]float64, 0, n)
	var s *setup
	for i := 0; i < n; i++ {
		runtime.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		var err error
		end := tr.begin("setup")
		s, err = w.prepare(tr)
		end()
		if err != nil {
			return 0, nil, err
		}
		durs = append(durs, float64(time.Since(t0)))
	}
	return time.Duration(median(durs)), s, nil
}
