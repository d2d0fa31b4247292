package exper

import (
	"fmt"
	"time"

	"xartrek/internal/cluster"
	"xartrek/internal/par"
	"xartrek/internal/quantile"
)

// Sharded serving execution (DESIGN.md §13): Opts.Shards partitions a
// serving cell's topology into per-shard sub-fleets, splits the
// arrival stream deterministically across them, runs each shard as its
// own simtime event timeline fanned over the shared par pool, and
// reduces per-shard sketches and counters into one ServingResult —
// the same partition-the-fleet shape the CERN RDA middleware uses to
// scale device access across servers.
//
// What stays exact and what is approximated:
//
//   - The arrival stream splits round-robin by position in the
//     time-ordered stream, for every source kind: each shard draws the
//     parent's whole stream (Poisson, trace or cohort) from the parent
//     seed and keeps every N-th arrival (ServingConfig.shardStride), so
//     the shard fleet collectively replays the identical request
//     sequence the unsharded engine injects, and per-shard offered
//     counts sum exactly to the unsharded count.
//   - Entry balancing is approximated: the unsharded front end assigns
//     an arrival to the least-loaded entry of the whole fleet, a shard
//     only to the least-loaded of its own share, and each shard's
//     scheduler adapts thresholds from its own traffic. Percentiles
//     therefore differ within the bounds the differential tests pin,
//     and counters that depend on placement (migrations,
//     reconfigurations) differ slightly while remaining deterministic.
//   - MeanHostLoad averages the shards' scheduler-host loads — a
//     fleet-mean approximation of the unsharded single-host sample.

// shardConfigs derives the per-shard sub-runs of a sharded cell: the
// parent config on one sub-topology each, dealt its share of the
// arrival stream, with Shards cleared so each sub-run takes the
// single-timeline engine.
func shardConfigs(cfg ServingConfig, topos []cluster.Topology) []ServingConfig {
	out := make([]ServingConfig, len(topos))
	for i := range out {
		sub := cfg
		sub.Name = fmt.Sprintf("%s/s%d", cfg.Name, i)
		sub.Topo = topos[i]
		sub.Opts.Shards = 0
		sub.shardCk = nil
		sub.shardStride, sub.shardPhase = len(topos), i
		out[i] = sub
	}
	return out
}

// runServingSharded fans one serving cell across Opts.Shards
// partitions and merges the results. The output is a pure function of
// (cfg, N): shard results land in indexed slots and every reduction
// folds in shard order, so it is identical across GOMAXPROCS settings.
func runServingSharded(arts *Artifacts, cfg ServingConfig) (ServingResult, error) {
	n := cfg.Opts.Shards
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		return ServingResult{}, fmt.Errorf("exper: serving %q: options.shards is incompatible with fault injection (the failure timeline is fleet-global)", cfg.Name)
	}
	if cfg.Admission.Enabled() || cfg.Autoscaler.Enabled() {
		return ServingResult{}, fmt.Errorf("exper: serving %q: options.shards is incompatible with admission control and autoscaling (entry-fleet state is global)", cfg.Name)
	}
	sketch, err := parseLatencyMode(cfg.Opts.LatencyMode)
	if err != nil {
		return ServingResult{}, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
	}
	topos, err := cluster.PartitionTopology(cfg.Topo, n)
	if err != nil {
		return ServingResult{}, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
	}
	subs := shardConfigs(cfg, topos)
	parts := make([]ServingResult, n)
	digs := make([]*latDigest, n)
	tdigs := make([]*tenantDigests, n)
	err = par.ForEach(n, func(i int) error {
		if cfg.shardCk != nil {
			if res, dig, td, ok := cfg.shardCk.load(i, n, subs[i]); ok {
				parts[i], digs[i], tdigs[i] = res, dig, td
				return nil
			}
		}
		res, dig, td, err := runServingCore(arts, subs[i], false)
		if err != nil {
			return err
		}
		if cfg.shardCk != nil {
			if err := cfg.shardCk.save(i, n, subs[i], res, dig, td); err != nil {
				return err
			}
		}
		parts[i], digs[i], tdigs[i] = res, dig, td
		return nil
	})
	if err != nil {
		return ServingResult{}, err
	}
	return mergeShardResults(cfg, sketch, parts, digs, tdigs), nil
}

// mergeShardResults reduces per-shard results into the cell's report:
// counters and scheduler stats sum, host load averages, and the
// latency distribution merges — exact slices concatenate and re-sort,
// sketches fold through quantile.Merge in shard order. Workload-driven
// cells additionally merge the per-class digests and per-cohort counts
// (mergeTenancy).
func mergeShardResults(cfg ServingConfig, sketch bool, parts []ServingResult, digs []*latDigest, tdigs []*tenantDigests) ServingResult {
	res := ServingResult{
		Name:       cfg.Name,
		Mode:       cfg.Mode,
		RatePerSec: cfg.RatePerSec,
		Policy:     parts[0].Policy,
	}
	if sketch {
		res.LatencyMode = LatencySketch
	}
	for _, p := range parts {
		res.Offered += p.Offered
		res.Completed += p.Completed
		res.MeanHostLoad += p.MeanHostLoad
		res.Sched.Add(p.Sched)
		res.FPGAReconfigs += p.FPGAReconfigs
	}
	res.ThroughputPerSec = float64(res.Completed) / cfg.Duration.Seconds()
	res.MeanHostLoad /= float64(len(parts))
	lat := mergeLatDigests(digs)
	lat.seal()
	res.P50 = lat.percentile(50)
	res.P95 = lat.percentile(95)
	res.P99 = lat.percentile(99)
	if testLatencySink != nil && !sketch {
		testLatencySink(cfg.Name, "latency", lat.exact)
	}
	res.Tenancy = mergeTenancy(cfg.Name, parts, tdigs, sketch, true)
	return res
}

// mergeLatDigests combines per-shard digests in shard order into one
// unsealed digest: exact samples concatenate (the caller's seal
// re-sorts), sketches K-way merge at the serving epsilon.
func mergeLatDigests(parts []*latDigest) *latDigest {
	if parts[0].sketch != nil {
		sks := make([]*quantile.Sketch, len(parts))
		for i, p := range parts {
			sks[i] = p.sketch
		}
		return &latDigest{sketch: quantile.Merged(quantile.DefaultEpsilon, sks...)}
	}
	total := 0
	for _, p := range parts {
		total += len(p.exact)
	}
	out := &latDigest{exact: make([]time.Duration, 0, total)}
	for _, p := range parts {
		out.exact = append(out.exact, p.exact...)
	}
	return out
}
