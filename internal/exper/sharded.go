package exper

import (
	"fmt"

	"xartrek/internal/cluster"
)

// Sharded serving execution (DESIGN.md §13): Opts.Shards partitions a
// serving cell's topology into per-shard sub-fleets and splits the
// arrival stream deterministically across them. RunServing runs each
// shard as its own simtime event timeline fanned over the shared par
// pool and reduceServing folds the shards' counters and digests into
// one ServingResult — the same partition-the-fleet shape the CERN RDA
// middleware uses to scale device access across servers. An unsharded
// run is the one-timeline case of the same fan-out and reduction.
//
// What stays exact and what is approximated:
//
//   - The arrival stream splits round-robin by position in the
//     time-ordered stream, for every source kind: each shard draws the
//     parent's whole stream (Poisson, trace or cohort) from the parent
//     seed and keeps every N-th arrival (ServingConfig.shardStride), so
//     the shard fleet collectively replays the identical request
//     sequence an unsharded run injects, and per-shard offered
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

// shardConfigs derives the timelines of a sharded cell: the parent
// config on one sub-topology each, dealt its share of the arrival
// stream, with Shards cleared. It rejects the features whose state is
// fleet-global, and an unknown latency mode under the cell's own name.
func shardConfigs(cfg ServingConfig) ([]ServingConfig, error) {
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		return nil, fmt.Errorf("exper: serving %q: options.shards is incompatible with fault injection (the failure timeline is fleet-global)", cfg.Name)
	}
	if cfg.Admission.Enabled() || cfg.Autoscaler.Enabled() {
		return nil, fmt.Errorf("exper: serving %q: options.shards is incompatible with admission control and autoscaling (entry-fleet state is global)", cfg.Name)
	}
	if _, err := parseLatencyMode(cfg.Opts.LatencyMode); err != nil {
		return nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
	}
	topos, err := cluster.PartitionTopology(cfg.Topo, cfg.Opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("exper: serving %q: %w", cfg.Name, err)
	}
	out := make([]ServingConfig, len(topos))
	for i := range out {
		sub := cfg
		sub.Name = fmt.Sprintf("%s/s%d", cfg.Name, i)
		sub.Topo = topos[i]
		sub.Opts.Shards = 0
		sub.shardStride, sub.shardPhase = len(topos), i
		out[i] = sub
	}
	return out, nil
}

// mergeLatDigests combines per-timeline digests into one: the union
// of the parts' leaves, in timeline order. Percentile reads select over
// the exact samples or sum the histograms of all of them, so the order
// does not matter, and no sample or bucket is copied.
func mergeLatDigests(parts []*latDigest) *latDigest {
	out := &latDigest{}
	for _, p := range parts {
		out.leaves = append(out.leaves, p.leaves...)
	}
	return out
}
