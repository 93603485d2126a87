package serve

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/guard"
	"iam/internal/pghist"
	"iam/internal/sampling"
)

// served is the model surface a version serves. Both *core.Model and
// *shard.Ensemble satisfy it, so the whole serving stack — dynamic batching,
// guard cascades, hot swap, rollback, shutdown persistence — works unchanged
// over a single model or a sharded ensemble. Both seed every query by its
// content, so an estimate is a pure function of (model, query), never of
// what else the dynamic batcher put in its batch.
type served interface {
	estimator.Estimator
	ReleaseWorkers()
	Save(w io.Writer) error
}

// version is one immutable generation of the serving stack: a model, its
// full guard cascade (model → sampling → histogram) and the cheap fallback
// cascade (sampling → histogram) the server degrades to under load or
// deadline pressure. Cascades are rebuilt per version so their failure
// counters start at zero — the rollback monitor reads a fresh signal after
// every swap instead of a lifetime average.
type version struct {
	id    int
	model served // nil for injected test cascades
	// cascade answers through the model with fallback tiers behind it.
	cascade *guard.Guarded
	// fallback is the cheap tier pair: sub-millisecond, cannot
	// realistically fail, never touches the model.
	fallback *guard.Guarded
	// inflight counts batches currently executing against this version.
	// The retire watcher waits for it to reach zero before releasing the
	// model's worker pool.
	inflight atomic.Int64
}

// newVersion builds the standard production cascade pair around m.
func newVersion(id int, t *dataset.Table, m served, seed int64, timeout time.Duration) (*version, error) {
	samp, err := sampling.New(t, fallbackSampleSize, seed+5)
	if err != nil {
		return nil, fmt.Errorf("serve: version %d sampling tier: %w", id, err)
	}
	hist, err := pghist.New(t, pghist.Config{})
	if err != nil {
		return nil, fmt.Errorf("serve: version %d histogram tier: %w", id, err)
	}
	full, err := guard.New(guard.Config{Timeout: timeout}, m, samp, hist)
	if err != nil {
		return nil, fmt.Errorf("serve: version %d cascade: %w", id, err)
	}
	fb, err := guard.New(guard.Config{Timeout: timeout, Name: "fallback"}, samp, hist)
	if err != nil {
		return nil, fmt.Errorf("serve: version %d fallback: %w", id, err)
	}
	return &version{id: id, model: m, cascade: full, fallback: fb}, nil
}

// fallbackSampleSize is the uniform-sample size of the cheap tier — small
// enough to answer in well under a millisecond on the evaluation tables.
const fallbackSampleSize = 2000

// newInjectedVersion wraps caller-supplied tiers — the chaos harness uses
// this to stand a server on deliberately faulty estimators.
func newInjectedVersion(id int, timeout time.Duration, primary estimator.Estimator, fallbacks ...estimator.Estimator) (*version, error) {
	tiers := append([]estimator.Estimator{primary}, fallbacks...)
	full, err := guard.New(guard.Config{Timeout: timeout}, tiers...)
	if err != nil {
		return nil, fmt.Errorf("serve: injected version %d cascade: %w", id, err)
	}
	fb, err := guard.New(guard.Config{Timeout: timeout, Name: "fallback"}, fallbacks...)
	if err != nil {
		return nil, fmt.Errorf("serve: injected version %d fallback: %w", id, err)
	}
	return &version{id: id, cascade: full, fallback: fb}, nil
}

// rejectionRate summarizes the primary (model) tier's health: the fraction
// of its calls that failed (error, panic, invalid result, or timeout), and
// the total number of calls the fraction is based on.
func (v *version) rejectionRate() (rate float64, calls uint64) {
	st := v.cascade.Stats()
	if len(st) == 0 {
		return 0, 0
	}
	primary := st[0]
	calls = primary.Served + primary.Failures()
	if calls == 0 {
		return 0, 0
	}
	return float64(primary.Failures()) / float64(calls), calls
}
