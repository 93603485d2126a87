package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"iam/internal/atomicfile"
	"iam/internal/dataset"
	"iam/internal/gmm"
	"iam/internal/nn"
)

// Training checkpoints. A checkpoint is a complete model snapshot (the same
// bytes Save writes) plus everything joint training needs to continue as if
// it had never stopped: the next epoch index, the watchdog's learning-rate
// scale and spent retry budget, and the AR and per-GMM optimizer state
// (Adam moments and step counters). Checkpoints are written atomically
// (temp file + fsync + rename), so a crash mid-write leaves the previous
// checkpoint intact, and are loadable both as a resume point and as a plain
// queryable model.

type checkpointSnapshot struct {
	Model     []byte
	NextEpoch int
	LRScale   float64
	Retries   int
	AR        *nn.TrainState
	GMM       []*gmm.TrainerState
}

// writeCheckpoint atomically persists the current training state. nextEpoch
// is the first epoch a resumed run should execute.
func (m *Model) writeCheckpoint(path string, nextEpoch int, lrScale float64, retries int) error {
	var modelBuf bytes.Buffer
	if err := m.Save(&modelBuf); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	snap := checkpointSnapshot{
		Model:     modelBuf.Bytes(),
		NextEpoch: nextEpoch,
		LRScale:   lrScale,
		Retries:   retries,
		AR:        m.arm.Net.CaptureState(),
	}
	for ci := range m.cols {
		if m.cols[ci].kind == kindGMM && m.cols[ci].trainer != nil {
			snap.GMM = append(snap.GMM, m.cols[ci].trainer.CaptureState())
		}
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(&snap)
	})
}

// readCheckpoint decodes a checkpoint file and rebuilds the model bound to
// t, including the GMM trainers and optimizer state needed to keep training.
func readCheckpoint(path string, t *dataset.Table) (*Model, *checkpointSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("core: opening checkpoint: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only descriptor
	var snap checkpointSnapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("core: decoding checkpoint %s: %w", path, err)
	}
	m, err := Load(bytes.NewReader(snap.Model), t)
	if err != nil {
		return nil, nil, fmt.Errorf("core: checkpoint model: %w", err)
	}
	if snap.AR != nil {
		if err := m.arm.Net.RestoreState(snap.AR); err != nil {
			return nil, nil, fmt.Errorf("core: checkpoint AR state: %w", err)
		}
	}
	j := 0
	for ci := range m.cols {
		if m.cols[ci].kind != kindGMM {
			continue
		}
		m.cols[ci].trainer = gmm.NewSGDTrainer(m.cols[ci].gm, m.cfg.GMMLR)
		if j < len(snap.GMM) {
			if err := m.cols[ci].trainer.RestoreState(snap.GMM[j]); err != nil {
				return nil, nil, fmt.Errorf("core: checkpoint GMM %d state: %w", j, err)
			}
		}
		j++
	}
	if j != len(snap.GMM) {
		return nil, nil, fmt.Errorf("core: checkpoint has %d GMM trainer states, model has %d GMM columns", len(snap.GMM), j)
	}
	return m, &snap, nil
}

// LoadCheckpoint opens a training checkpoint as a fully queryable model and
// reports the next epoch a resumed run would execute. Use Config.Resume to
// actually continue training from it.
func LoadCheckpoint(path string, t *dataset.Table) (*Model, int, error) {
	m, snap, err := readCheckpoint(path, t)
	if err != nil {
		return nil, 0, err
	}
	return m, snap.NextEpoch, nil
}

// resumeTraining restores a checkpoint and continues joint training to
// cfg.Epochs. The checkpointed model carries its own (persisted) training
// configuration; the caller's runtime-only settings — checkpointing, the
// watchdog budget, callbacks, and ctx — still apply.
func resumeTraining(ctx context.Context, t *dataset.Table, cfg Config) (*Model, error) {
	m, snap, err := readCheckpoint(cfg.CheckpointPath, t)
	if err != nil {
		return nil, err
	}
	if m.cfg.SeparateTraining {
		return nil, fmt.Errorf("core: resume is only supported for joint training")
	}
	// Runtime-only knobs come from the caller, not the checkpoint.
	m.cfg.CheckpointPath = cfg.CheckpointPath
	m.cfg.Resume = true
	m.cfg.MaxRetries = cfg.MaxRetries
	m.cfg.MaxGradNorm = cfg.MaxGradNorm
	m.cfg.OnEpoch = cfg.OnEpoch
	m.cfg.Workers = cfg.Workers
	m.cfg.MassCacheSize = cfg.MassCacheSize
	m.cfg.TrainWorkers = cfg.TrainWorkers
	if snap.NextEpoch < m.cfg.Epochs {
		if err := m.trainJoint(ctx, snap.NextEpoch, snap.LRScale, snap.Retries); err != nil {
			return nil, err
		}
	}
	m.invalidateMasses()
	return m, nil
}
