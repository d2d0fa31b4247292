package exper

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
// A sharded cell is one cell here too: its file is written once all
// its shards finish, and a kill mid-cell reruns the whole cell. Resume
// reads only the manifest and the cell files, so any other file in the
// directory, such as the cell-0007.shard-003.json files older versions
// wrote, is neither read nor rewritten.
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
