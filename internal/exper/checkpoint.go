package exper

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"xartrek/internal/quantile"
)

// Campaign checkpointing persists per-cell results as a campaign runs,
// so an interrupted grid — a million-request sweep killed at cell k —
// resumes from the completed prefix instead of recomputing it. The
// format is deliberately dumb and inspectable:
//
//	dir/manifest.json   identity of the expanded campaign (name, cell
//	                    count, SHA-256 fingerprint of the expanded
//	                    cell specs)
//	dir/cell-0007.json  the CellResult of expanded cell 7
//
// Every file is written atomically (temp file + rename in the same
// directory), so a kill leaves either a complete cell file or none.
// Because cells are deterministic and CellResult round-trips losslessly
// through JSON, a resumed campaign's final report is byte-identical to
// an uninterrupted run's.
//
// A checkpoint is only valid for the exact campaign that wrote it:
// resume verifies the fingerprint and refuses to mix results from a
// different spec.

// checkpointManifest identifies the campaign a checkpoint directory
// belongs to.
type checkpointManifest struct {
	Campaign string `json:"campaign"`
	Cells    int    `json:"cells"`
	// Fingerprint is the hex SHA-256 of the JSON-marshalled expanded
	// cell list (with the campaign name) — any change to the spec or
	// its expansion invalidates the checkpoint.
	Fingerprint string `json:"fingerprint"`
}

// checkpoint is one open checkpoint directory.
type checkpoint struct {
	dir string
}

// campaignFingerprint hashes the expanded campaign.
func campaignFingerprint(name string, cells []CellSpec) (string, error) {
	blob, err := json.Marshal(struct {
		Name  string     `json:"name"`
		Cells []CellSpec `json:"cells"`
	}{Name: name, Cells: cells})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// writeFileAtomic writes data via a temp file and rename, so readers
// (and resumed runs) never observe a partial file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// openCheckpoint opens (or creates) a checkpoint directory for the
// expanded campaign and loads every completed cell. loaded[i] is nil
// for cells still to run.
func openCheckpoint(dir, name string, cells []CellSpec) (*checkpoint, []*CellResult, error) {
	fp, err := campaignFingerprint(name, cells)
	if err != nil {
		return nil, nil, err
	}
	ck := &checkpoint{dir: dir}
	manifest := checkpointManifest{Campaign: name, Cells: len(cells), Fingerprint: fp}
	raw, err := os.ReadFile(ck.manifestPath())
	switch {
	case os.IsNotExist(err):
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		blob, err := json.MarshalIndent(manifest, "", "  ")
		if err != nil {
			return nil, nil, err
		}
		if err := writeFileAtomic(ck.manifestPath(), append(blob, '\n')); err != nil {
			return nil, nil, err
		}
		return ck, make([]*CellResult, len(cells)), nil
	case err != nil:
		return nil, nil, err
	}
	var have checkpointManifest
	if err := json.Unmarshal(raw, &have); err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: corrupt manifest: %w", dir, err)
	}
	if have.Fingerprint != fp {
		return nil, nil, fmt.Errorf("checkpoint %s was written by a different campaign (fingerprint %.12s, want %.12s); use a fresh directory",
			dir, have.Fingerprint, fp)
	}
	loaded := make([]*CellResult, len(cells))
	for i := range cells {
		raw, err := os.ReadFile(ck.cellPath(i))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, nil, err
		}
		var res CellResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return nil, nil, fmt.Errorf("checkpoint %s: corrupt cell file %s: %w", dir, filepath.Base(ck.cellPath(i)), err)
		}
		if res.Index != i {
			return nil, nil, fmt.Errorf("checkpoint %s: cell file %s holds index %d", dir, filepath.Base(ck.cellPath(i)), res.Index)
		}
		loaded[i] = &res
	}
	return ck, loaded, nil
}

func (ck *checkpoint) manifestPath() string { return filepath.Join(ck.dir, "manifest.json") }

func (ck *checkpoint) cellPath(i int) string {
	return filepath.Join(ck.dir, fmt.Sprintf("cell-%04d.json", i))
}

// saveCell persists one completed cell atomically. Called from the
// campaign's parallel workers — safe, each index writes a distinct
// file.
func (ck *checkpoint) saveCell(res CellResult) error {
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return writeFileAtomic(ck.cellPath(res.Index), append(blob, '\n'))
}

// --- shard granularity -----------------------------------------------
//
// A sharded serving cell persists each shard's result as it completes:
//
//	dir/cell-0007.shard-003.json   shard 3 of expanded cell 7
//
// A kill mid-cell then resumes by re-running only the missing shards.
// Shard files carry their own fingerprint (cell index, shard position
// and count, and the shard's full sub-config), so a stale or foreign
// file is recomputed rather than trusted; the campaign manifest
// already guards the directory as a whole. Once the cell's own file
// exists the shard files are dead weight — kept, like every part of
// this format, because dumb and inspectable beats tidy.

// shardCheckpoint scopes a campaign checkpoint to one sharded cell.
type shardCheckpoint struct {
	ck   *checkpoint
	cell int
}

// shardFile is the persisted part of one shard: the shard's unreduced
// ServingResult plus its latency distributions — the exact samples or
// the canonical sketch state — so the reducer of a resumed run merges
// exactly what the original run would have. Files whose serving
// payload also carries the shard's own throughput and percentiles
// load the same way; the reducer recomputes those.
type shardFile struct {
	Fingerprint string        `json:"fingerprint"`
	Shard       int           `json:"shard"`
	Shards      int           `json:"shards"`
	Serving     ServingResult `json:"serving"`
	// ExactNS is the shard's completion-latency samples in nanoseconds
	// (exact mode).
	ExactNS nsSamples `json:"exact_ns,omitempty"`
	// Sketch is the shard's GK summary (sketch mode).
	Sketch *quantile.Sketch `json:"sketch,omitempty"`
	// TenantExactNS / TenantSketches carry a workload-driven shard's
	// per-class distributions keyed by SLO class, in the same mode as
	// the aggregate digest above. Absent on workload-free shards, so
	// their files stay byte-identical to pre-tenancy output.
	TenantExactNS  map[string]nsSamples        `json:"tenant_exact_ns,omitempty"`
	TenantSketches map[string]*quantile.Sketch `json:"tenant_sketches,omitempty"`
}

// nsSamples is an exact distribution as shard files store it: one JSON
// array of nanosecond integers. It marshals straight from a digest's
// leaves, one after another, so saving copies no sample; an array read
// back is one leaf.
type nsSamples []*latLeaf

func (l nsSamples) MarshalJSON() ([]byte, error) {
	buf := []byte{'['}
	for _, leaf := range l {
		for _, v := range leaf.samples {
			if len(buf) > 1 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
	}
	return append(buf, ']'), nil
}

func (l *nsSamples) UnmarshalJSON(b []byte) error {
	var samples []time.Duration
	if err := json.Unmarshal(b, &samples); err != nil {
		return err
	}
	*l = nsSamples{{samples: samples}}
	return nil
}

// shardFingerprint witnesses one shard's identity: the owning cell,
// the shard's position in the partition, and the fully derived
// sub-config (topology, stream split, seed). Any change to the
// partition recomputes the shard.
func shardFingerprint(cell, shard, shards int, cfg ServingConfig) (string, error) {
	blob, err := json.Marshal(struct {
		Cell   int           `json:"cell"`
		Shard  int           `json:"shard"`
		Shards int           `json:"shards"`
		Config ServingConfig `json:"config"`
	}{Cell: cell, Shard: shard, Shards: shards, Config: cfg})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

func (sc *shardCheckpoint) path(shard int) string {
	return filepath.Join(sc.ck.dir, fmt.Sprintf("cell-%04d.shard-%03d.json", sc.cell, shard))
}

// load restores one shard's part if a matching file exists. Missing,
// corrupt or mismatched files report ok=false and the shard re-runs —
// resume never trusts bytes it cannot witness. Beyond the fingerprint,
// a file must agree with itself and with the config: its digests are
// in the config's latency mode and hold Serving.Completed samples, and
// its tenancy report is present exactly when the config has a
// workload, with the workload's classes in order, its cohort count,
// and per class a digest of the class's Completed samples.
func (sc *shardCheckpoint) load(shard, shards int, cfg ServingConfig) (servingPart, bool) {
	raw, err := os.ReadFile(sc.path(shard))
	if err != nil {
		return servingPart{}, false
	}
	var f shardFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return servingPart{}, false
	}
	fp, err := shardFingerprint(sc.cell, shard, shards, cfg)
	if err != nil || f.Fingerprint != fp || f.Shard != shard || f.Shards != shards {
		return servingPart{}, false
	}
	sketch, err := parseLatencyMode(cfg.Opts.LatencyMode)
	if err != nil {
		return servingPart{}, false
	}
	// digest rebuilds one distribution from the file's exact samples or
	// sketch; ok=false unless it is in the config's mode and holds want
	// samples.
	digest := func(ns nsSamples, sk *quantile.Sketch, want int) (*latDigest, bool) {
		d := &latDigest{sketch: sk}
		if !sketch {
			d.leaves = ns
		}
		return d, (sk != nil) == sketch && d.count() == want
	}
	part := servingPart{res: f.Serving}
	var ok bool
	if part.lat, ok = digest(f.ExactNS, f.Sketch, f.Serving.Completed); !ok {
		return servingPart{}, false
	}
	ten := f.Serving.Tenancy
	if (ten != nil) != cfg.Workload.Enabled() {
		return servingPart{}, false
	}
	if ten == nil {
		return part, true
	}
	classes := cfg.Workload.Classes()
	if len(ten.Classes) != len(classes) || len(ten.Cohorts) != len(cfg.Workload.Cohorts) {
		return servingPart{}, false
	}
	for s, c := range ten.Classes {
		d, ok := digest(f.TenantExactNS[c.Class], f.TenantSketches[c.Class], c.Completed)
		if c.Class != classes[s] || !ok {
			return servingPart{}, false
		}
		part.classes = append(part.classes, d)
	}
	return part, true
}

// save persists one completed shard's part atomically, before the cell
// announces progress — a kill after this point loses no finished
// shard.
func (sc *shardCheckpoint) save(shard, shards int, cfg ServingConfig, part servingPart) error {
	fp, err := shardFingerprint(sc.cell, shard, shards, cfg)
	if err != nil {
		return err
	}
	f := shardFile{Fingerprint: fp, Shard: shard, Shards: shards, Serving: part.res, Sketch: part.lat.sketch}
	if part.lat.count() > 0 && part.lat.sketch == nil {
		f.ExactNS = part.lat.leaves
	}
	if ten := part.res.Tenancy; ten != nil {
		f.TenantExactNS = make(map[string]nsSamples, len(ten.Classes))
		f.TenantSketches = make(map[string]*quantile.Sketch, len(ten.Classes))
		for s, c := range ten.Classes {
			if d := part.classes[s]; d.sketch != nil {
				f.TenantSketches[c.Class] = d.sketch
			} else {
				f.TenantExactNS[c.Class] = d.leaves
			}
		}
	}
	blob, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return writeFileAtomic(sc.path(shard), append(blob, '\n'))
}
