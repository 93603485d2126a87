package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"iam/internal/core"
	"iam/internal/dataset"
)

// Ensemble persistence: a magic prefix (so loaders can tell an ensemble file
// from a plain model file by peeking), then one gob snapshot holding the
// ensemble-level configuration, the partition's per-shard row counts, and
// each shard model's own Save bytes. The table data is not serialized — Load
// rebinds against a caller-supplied table, recomputing the partition and
// verifying it matches the one the ensemble was trained on.

// Magic is the file prefix identifying a serialized Ensemble. Plain
// core.Model files are gob streams that cannot begin with these bytes, so an
// 8-byte peek disambiguates the two formats.
const Magic = "IAMENS1\n"

type ensSnapshot struct {
	TableName string
	NumCols   int
	Rows      []int // per-shard row counts, in shard order

	// Files written before the early-stop z, minimum shard count and
	// fallback sample size and timeout became constants also carry
	// EarlyStopZ, MinShards, FallbackSamples and FallbackTimeout; gob skips
	// fields the struct no longer has, so those files still load.
	Seed            int64
	TrainParallel   int
	EarlyStopRelErr float64
	Fallback        bool

	Models [][]byte
}

// Save serializes the ensemble to w: the magic prefix, then the snapshot.
func (e *Ensemble) Save(w io.Writer) error {
	st := e.st.Load()
	snap := ensSnapshot{
		TableName:       e.table.Name,
		NumCols:         e.table.NumCols(),
		Seed:            e.cfg.Seed,
		TrainParallel:   e.cfg.TrainParallel,
		EarlyStopRelErr: e.cfg.EarlyStopRelErr,
		Fallback:        e.cfg.Fallback,
	}
	for _, slot := range st.slots {
		snap.Rows = append(snap.Rows, slot.hi-slot.lo)
		var buf bytes.Buffer
		if err := slot.model.Save(&buf); err != nil {
			return fmt.Errorf("shard: saving shard %d: %w", slot.index, err)
		}
		snap.Models = append(snap.Models, buf.Bytes())
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// Load reads an ensemble previously written by Save and rebinds it to t,
// which must be the training table: the partition is recomputed from t and
// every shard's row count must match the saved one, then each shard model
// loads against its recomputed sub-table.
func Load(r io.Reader, t *dataset.Table) (*Ensemble, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("shard: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("shard: not an ensemble file (magic %q)", magic)
	}
	var snap ensSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("shard: decoding ensemble: %w", err)
	}
	if t.Name != snap.TableName || t.NumCols() != snap.NumCols {
		return nil, fmt.Errorf("shard: ensemble was trained on %q (%d cols), got %q (%d cols)",
			snap.TableName, snap.NumCols, t.Name, t.NumCols())
	}
	k := len(snap.Models)
	if k == 0 || len(snap.Rows) != k {
		return nil, fmt.Errorf("shard: snapshot has %d models and %d row counts", k, len(snap.Rows))
	}
	cfg := Config{
		Shards:          k,
		TrainParallel:   snap.TrainParallel,
		EarlyStopRelErr: snap.EarlyStopRelErr,
		Fallback:        snap.Fallback,
	}
	cfg.Seed = snap.Seed
	parts := Partition(t, k)
	models := make([]*core.Model, k)
	for si, part := range parts {
		if part.NumRows() != snap.Rows[si] {
			return nil, fmt.Errorf("shard: shard %d has %d rows, ensemble was trained on %d — table changed since training",
				si, part.NumRows(), snap.Rows[si])
		}
		m, err := core.Load(bytes.NewReader(snap.Models[si]), part)
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", si, err)
		}
		models[si] = m
	}
	return assemble(t, cfg, parts, models)
}

// IsEnsemble reports whether prefix (at least len(Magic) bytes of the start
// of a file) identifies an ensemble snapshot.
func IsEnsemble(prefix []byte) bool {
	return len(prefix) >= len(Magic) && string(prefix[:len(Magic)]) == Magic
}
