// Package core implements IAM, the paper's contribution: a selectivity
// estimator integrating per-attribute Gaussian mixture models with a deep
// autoregressive model (ResMADE). Continuous attributes with large domains
// are reduced to their argmax GMM component index (§4.2); the GMMs and the
// AR model are trained jointly end-to-end on shared mini-batches with
// loss = Σ loss_GMM + loss_AR (Eq. 6, §4.3); and range queries are answered
// with the unbiased bias-corrected progressive-sampling algorithm of §5
// (Algorithm 1), where the per-component range masses P̂_GMM(R) multiply the
// AR conditionals.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sync"

	"iam/internal/ar"
	"iam/internal/dataset"
	"iam/internal/gmm"
	"iam/internal/nn"
	"iam/internal/query"
)

// RangeMassMode selects how per-component range masses P̂_GMM(R) are
// computed during query inference (§5.2).
type RangeMassMode int

const (
	// MassMonteCarlo is the paper's method: each component's mass is the
	// fraction of S Monte-Carlo draws inside the range, read off one sorted
	// standard-normal set per column drawn when the column is built.
	MassMonteCarlo RangeMassMode = iota
	// MassExact evaluates the Gaussian CDF directly (deterministic
	// alternative; ablation).
	MassExact
	// MassEmpirical uses the exact per-component data fractions
	// s(R ∩ k)/s(k) from the training data — the quantity in the
	// unbiasedness proof (extension beyond the paper).
	MassEmpirical
)

// validMassMode reports whether mode is one of the defined mass modes.
func validMassMode(mode RangeMassMode) bool {
	return mode >= MassMonteCarlo && mode <= MassEmpirical
}

// Config controls IAM construction and training.
type Config struct {
	// GMMThreshold: continuous columns with more distinct values than this
	// are fitted by a GMM (paper default 1000).
	GMMThreshold int
	// Components is the number of GMM components K (paper default 30,
	// which zero falls back to). AutoComponents (-1) selects K per column
	// automatically (VBGM-style, gmm.SelectK).
	Components int
	// MaxSubColumn caps the domain of non-GMM columns; larger domains are
	// factored NeuroCard-style. Default 256.
	MaxSubColumn int

	Hidden   []int // AR hidden widths; default [128, 64, 64, 128]
	EmbedDim int   // default 32

	Epochs    int     // default 10
	BatchSize int     // default 256
	LR        float64 // AR learning rate; default 2e-3
	GMMLR     float64 // GMM learning rate; default 0.02

	// SeparateTraining disables joint end-to-end training: GMMs are fully
	// fitted first, then the AR model (the "Separate Training" alternative
	// of §4.3; ablation).
	SeparateTraining bool

	// GMMSamples is S, the Monte-Carlo samples behind each component's
	// P̂_GMM (paper default 10000): one set of S standard-normal draws per
	// GMM column, shifted and scaled to every component.
	GMMSamples int
	// NumSamples is S_p, the progressive-sampling paths per query
	// (paper uses 8000; default here 800 for CPU scale).
	NumSamples int
	// ExhaustiveLimit, when positive, answers queries whose reduced search
	// space fits within the limit by *exact enumeration* instead of
	// sampling — feasible precisely because the GMMs shrank the domains
	// (an extension; the paper rules enumeration out only for original
	// domains). Zero disables it.
	ExhaustiveLimit int
	MassMode        RangeMassMode

	// Workers caps how many goroutines one EstimateBatch call shards its
	// queries across (each worker gets a pooled session and scratch).
	// 0 or 1 (the default) runs single-threaded on the caller; negative
	// means GOMAXPROCS. Every query draws from its own stream derived from
	// (Seed, query index), so estimates are bit-identical under every
	// Workers setting and batch composition.
	Workers int
	// MassCacheSize is ignored: it sized a cache of §5.2 range-mass vectors
	// that no longer exists, since a mass vector is K binary searches into
	// one sorted array. It is still validated, saved and loaded, so old
	// model files and configs that set it keep working.
	MassCacheSize int
	// TrainWorkers caps how many goroutines one joint-training mini-batch
	// fans its shards across (each shard runs forward/backward on its own
	// pooled session and gradient buffer; see train.go). 0 or 1 (the
	// default) runs the sharded pipeline inline on the caller; negative
	// means GOMAXPROCS. The shard plan depends only on the batch size —
	// never on this knob — and per-shard gradients are reduced in fixed
	// shard order, so the training trajectory is bit-identical under every
	// setting. Persisted through save/checkpoint like Workers.
	TrainWorkers int

	// ReducerFactory, when non-nil, replaces the GMM with an alternative
	// domain-reduction method for every reduced column (§6.6 ablation).
	// Training is then necessarily separate (the alternatives are not
	// gradient-trained).
	ReducerFactory func(values []float64, k int, seed int64) Reducer

	// Uncorrected disables the §5.2 bias correction (vanilla progressive
	// sampling on the reduced domain): every component of a queried GMM
	// column is admitted with weight 1. Demonstrates why Theorem 5.1's
	// correction is required; ablation only.
	Uncorrected bool

	Seed int64

	// OnEpoch, when non-nil, is called after every epoch with the
	// in-training model and the mean GMM/AR NLLs; returning false stops
	// training early. The model is fully usable for estimation inside the
	// callback (Figure 6 evaluates per-epoch max q-error this way).
	OnEpoch func(epoch int, m *Model, gmmNLL, arNLL float64) bool

	// CheckpointPath, when set, makes joint training write an epoch-
	// granular checkpoint to this file after every completed epoch
	// (atomically: temp file + fsync + rename), and on cancellation. The
	// checkpoint contains the full model plus AR and GMM optimizer state.
	CheckpointPath string
	// Resume, with CheckpointPath set and the file present, restores the
	// checkpoint and continues training from the next epoch instead of
	// starting over. Epoch shuffles and wildcard masks derive from
	// (Seed, epoch), so a resumed run replays exactly the batches an
	// uninterrupted run would have seen.
	Resume bool
	// MaxRetries bounds the divergence watchdog's rollback budget across
	// the run: each NaN/Inf epoch loss rolls parameters back to the last
	// good epoch and halves the learning rates, at most this many times.
	// 0 means the default of 3; negative disables retries.
	MaxRetries int
	// MaxGradNorm, when positive, additionally treats an AR mini-batch
	// gradient L2 norm above it (or NaN) as a divergence event.
	MaxGradNorm float64
}

// AutoComponents requests automatic per-column component-count selection.
const AutoComponents = -1

// Reducer is an alternative domain-reduction method swapped in for the GMM
// (paper §6.6, Tables 9-11: equi-depth histograms, spline histograms,
// uniform mixture models). A Reducer maps a continuous value to one of K
// component indices and reports per-component range masses for the §5.2
// bias correction.
type Reducer interface {
	// K returns the number of components.
	K() int
	// Assign returns the component index of a value.
	Assign(v float64) int
	// RangeMass fills out[k] with the fraction of component k's mass
	// inside [lo, hi]. len(out) == K().
	RangeMass(lo, hi float64, out []float64)
	// SizeBytes reports the reducer's parameter storage.
	SizeBytes() int
}

func (c *Config) fillDefaults() {
	if c.GMMThreshold <= 0 {
		c.GMMThreshold = 1000
	}
	if c.Components == 0 {
		c.Components = 30
	}
	if c.MaxSubColumn <= 1 {
		c.MaxSubColumn = 256
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128, 64, 64, 128}
	}
	if c.EmbedDim <= 0 {
		c.EmbedDim = 32
	}
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.LR <= 0 {
		c.LR = 2e-3
	}
	if c.GMMLR <= 0 {
		c.GMMLR = 0.02
	}
	if c.GMMSamples <= 0 {
		c.GMMSamples = 10000
	}
	if c.NumSamples <= 0 {
		c.NumSamples = 800
	}
}

// Upper bounds on the sampling sizes a Config, and so a saved model, may
// ask for. They sit far above the paper's settings (S_p = 8000, S = 10000)
// and keep a damaged or crafted model file from sizing a session of 2^40
// rows at its first estimate. TrainContext and Load enforce the same caps,
// so every model that trains also loads.
const (
	MaxNumSamples    = 1 << 16 // S_p, progressive-sampling paths per query
	MaxGMMSamples    = 1 << 20 // S, Monte-Carlo samples per GMM column
	MaxMassCacheSize = 1 << 20 // Config.MassCacheSize, which is ignored
)

// checkSampleSizes rejects sampling sizes above the caps above, or below one
// sample per query and per component.
func checkSampleSizes(numSamples, gmmSamples, massCacheSize int) error {
	if numSamples < 1 || numSamples > MaxNumSamples {
		return fmt.Errorf("%d samples per query, want 1 to %d", numSamples, MaxNumSamples)
	}
	if gmmSamples < 1 || gmmSamples > MaxGMMSamples {
		return fmt.Errorf("%d samples per GMM column, want 1 to %d", gmmSamples, MaxGMMSamples)
	}
	if massCacheSize > MaxMassCacheSize {
		return fmt.Errorf("mass cache of %d entries, want at most %d", massCacheSize, MaxMassCacheSize)
	}
	return nil
}

// colKind describes how an original column maps onto AR columns.
type colKind int

const (
	kindPassthrough colKind = iota // categorical/ordinal, one AR column
	kindFactored                   // ordinal code factored into subcolumns
	kindGMM                        // continuous, reduced by a GMM
	kindReduced                    // continuous, reduced by an alternative Reducer
)

// colInfo carries the per-original-column mapping metadata.
type colInfo struct {
	// Column is the AR span and interval codec. Coded (passthrough and
	// factored) columns are complete once built; GMM and reducer columns
	// get their Weights from initMasses.
	ar.Column
	kind colKind

	gm      *gmm.Model // valid when kind == kindGMM
	trainer *gmm.SGDTrainer

	reducer Reducer // valid when kind == kindReduced
	// dataLo and dataHi are a reducer column's observed value range: the
	// AVG/SUM value estimate clips its interval to them.
	dataLo, dataHi float64

	// mass fills the §5.2 per-component masses of the closed interval
	// [lo, hi] (GMM and reducer columns), under the configured MassMode.
	// MassMonteCarlo and MassExact read the mixture's current parameters,
	// so they are set once by initMasses; MassEmpirical carries a partition
	// of the training data that refreshMassEstimatorsLocked rebuilds after
	// training moves the mixture.
	mass func(lo, hi float64, out []float64)
}

// Model is a trained IAM estimator.
type Model struct {
	table *dataset.Table
	cfg   Config
	cols  []colInfo
	arm   *ar.Model

	// Per-epoch training losses (mean GMM NLL summed over GMMs, AR NLL).
	GMMLosses []float64
	ARLosses  []float64

	// mu is the model's reader/writer lock. Estimation paths hold the read
	// side: any number of EstimateBatch calls proceed concurrently, each on
	// pooled per-worker sessions. Writers — training mini-batch steps, the
	// MassEmpirical refresh and Save — hold the write side.
	// Lock order: mu before poolMu; never the reverse.
	mu         sync.RWMutex
	massDirty  bool // guarded by mu; only MassEmpirical ever sets it
	massBuilds int  // guarded by mu; sample sets and partitions built, see MassBuilds

	// poolMu guards the pool of reusable estimate workers (session + scratch
	// pairs) and the pool of constraint-building scratches. Workers are
	// checked out by concurrent EstimateBatch shards and returned when the
	// shard completes; see getWorker/putWorker.
	poolMu   sync.Mutex
	workers  []*estWorker    // guarded by poolMu
	bscratch []*batchScratch // guarded by poolMu
}

// Train fits IAM on table t.
func Train(t *dataset.Table, cfg Config) (*Model, error) {
	return TrainContext(context.Background(), t, cfg)
}

// TrainContext is Train with cancellation and deadlines: cancelling ctx
// stops the training loop between mini-batches. If a checkpoint path is
// configured, the state of the last completed epoch is flushed there before
// returning, so the run can later resume with Config.Resume.
func TrainContext(ctx context.Context, t *dataset.Table, cfg Config) (*Model, error) {
	cfg.fillDefaults()
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("core: empty table")
	}
	if !validMassMode(cfg.MassMode) {
		return nil, fmt.Errorf("core: unknown mass mode %d", cfg.MassMode)
	}
	if err := checkSampleSizes(cfg.NumSamples, cfg.GMMSamples, cfg.MassCacheSize); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Resume && cfg.CheckpointPath != "" {
		if _, err := os.Stat(cfg.CheckpointPath); err == nil {
			return resumeTraining(ctx, t, cfg)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	m := &Model{table: t, cfg: cfg}
	var cards []int
	for _, c := range t.Columns {
		info := colInfo{Column: ar.Column{First: len(cards), Count: 1}}
		switch {
		case c.Kind == dataset.Continuous && c.DistinctCount() > cfg.GMMThreshold && cfg.ReducerFactory != nil:
			info.kind = kindReduced
			info.reducer = cfg.ReducerFactory(c.Floats, cfg.Components, cfg.Seed)
			info.dataLo, info.dataHi = slices.Min(c.Floats), slices.Max(c.Floats)
			cards = append(cards, info.reducer.K())
		case c.Kind == dataset.Continuous && c.DistinctCount() > cfg.GMMThreshold:
			k := cfg.Components
			if k == AutoComponents {
				k = gmm.SelectK(c.Floats, 50, 2000, rng)
			}
			// Initialize on a uniform subsample (paper §4.2).
			sample := c.Floats
			if len(sample) > 5000 {
				sub := make([]float64, 5000)
				for i := range sub {
					sub[i] = c.Floats[rng.Intn(len(c.Floats))]
				}
				sample = sub
			}
			info.kind = kindGMM
			gm, err := gmm.InitKMeansPP(sample, k, rng)
			if err != nil {
				return nil, fmt.Errorf("core: column %s: %w", c.Name, err)
			}
			info.gm = gm
			info.trainer = gmm.NewSGDTrainer(info.gm, cfg.GMMLR)
			cards = append(cards, k)
		default:
			col, err := ar.NewCodedColumn(len(cards), dataset.BuildEncoder(c), cfg.MaxSubColumn)
			if err != nil {
				return nil, fmt.Errorf("core: column %s: %w", c.Name, err)
			}
			info.Column = col
			info.kind = kindPassthrough
			if col.Count > 1 {
				info.kind = kindFactored
			}
			cards = col.AppendCards(cards)
		}
		m.cols = append(m.cols, info)
	}
	if len(cards) < 2 {
		return nil, fmt.Errorf("core: need at least 2 AR columns, got %d", len(cards))
	}

	arm, err := ar.New(cards, cfg.Hidden, cfg.EmbedDim, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	m.arm = arm

	// Inference state is initialized before training so OnEpoch callbacks
	// can estimate with the in-progress model.
	m.initMasses()

	var trainErr error
	if cfg.SeparateTraining || cfg.ReducerFactory != nil {
		trainErr = m.trainSeparate(ctx, rng)
	} else {
		trainErr = m.trainJoint(ctx, 0, 1, 0)
	}
	if trainErr != nil {
		return nil, trainErr
	}
	// Locked: estimators spawned by OnEpoch callbacks may still be running.
	m.invalidateMasses()
	return m, nil
}

// encodeRow writes the AR codes of table row ri into dst.
//
// iam:noalloc
func (m *Model) encodeRow(ri int, dst []int) error {
	for ci := range m.cols {
		info := &m.cols[ci]
		c := m.table.Columns[ci]
		switch info.kind {
		case kindGMM:
			dst[info.First] = info.gm.Assign(c.Floats[ri])
		case kindReduced:
			dst[info.First] = info.reducer.Assign(c.Floats[ri])
		case kindPassthrough:
			code, err := m.rawCode(ci, ri)
			if err != nil {
				return err
			}
			dst[info.First] = code
		case kindFactored:
			code, err := m.rawCode(ci, ri)
			if err != nil {
				return err
			}
			info.Factor.SplitInto(dst[info.First:info.First+info.Count], code)
		}
	}
	return nil
}

// rawCode returns the ordinal code of a non-GMM column value at row ri. The
// encoder is built from the very column it encodes, so an error here means
// the table mutated underneath the model — reported, not panicked, so one
// bad row cannot kill a whole training run.
//
// iam:noalloc
func (m *Model) rawCode(ci, ri int) (int, error) {
	c := m.table.Columns[ci]
	if c.Kind == dataset.Categorical {
		return c.Ints[ri], nil
	}
	code, err := m.cols[ci].Enc.EncodeFloat(c.Floats[ri])
	if err != nil {
		//lint:ignore noalloc cold encode-failure path, only taken when the table mutated under the model
		return 0, fmt.Errorf("core: encoding column %q row %d: %w", c.Name, ri, err)
	}
	return code, nil
}

// epochRNG derives the deterministic RNG of one joint-training epoch from
// (seed, epoch) alone, so a run resumed from an epoch checkpoint replays
// exactly the shuffles and wildcard masks of an uninterrupted run.
func epochRNG(seed int64, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(epoch)))
}

// jointState snapshots everything the joint optimizer mutates: AR parameters
// with Adam state, and per-GMM trainer state. The divergence watchdog rolls
// back to one; checkpoints embed one.
type jointState struct {
	AR  *nn.TrainState
	GMM []*gmm.TrainerState // one per kindGMM column, in column order
}

func (m *Model) captureJoint() *jointState {
	st := &jointState{AR: m.arm.Net.CaptureState()}
	for ci := range m.cols {
		if m.cols[ci].kind == kindGMM && m.cols[ci].trainer != nil {
			st.GMM = append(st.GMM, m.cols[ci].trainer.CaptureState())
		}
	}
	return st
}

func (m *Model) restoreJoint(st *jointState) error {
	if err := m.arm.Net.RestoreState(st.AR); err != nil {
		return err
	}
	j := 0
	for ci := range m.cols {
		if m.cols[ci].kind != kindGMM || m.cols[ci].trainer == nil {
			continue
		}
		if j >= len(st.GMM) {
			return fmt.Errorf("core: joint state has %d GMM trainers, model needs more", len(st.GMM))
		}
		if err := m.cols[ci].trainer.RestoreState(st.GMM[j]); err != nil {
			return err
		}
		j++
	}
	return nil
}

// setGMMLR updates every GMM trainer's learning rate (watchdog backoff).
func (m *Model) setGMMLR(lr float64) {
	for ci := range m.cols {
		if m.cols[ci].kind == kindGMM && m.cols[ci].trainer != nil {
			m.cols[ci].trainer.SetLR(lr)
		}
	}
}

func (m *Model) retryBudget() int {
	switch {
	case m.cfg.MaxRetries == 0:
		return 3
	case m.cfg.MaxRetries < 0:
		return 0
	default:
		return m.cfg.MaxRetries
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// trainSeparate is the §4.3 "Separate Training" baseline: GMMs first, then
// the AR model on frozen assignments. Cancelling ctx stops between batches;
// the AR phase inherits the nn watchdog.
func (m *Model) trainSeparate(ctx context.Context, rng *rand.Rand) error {
	cfg := m.cfg
	for ci := range m.cols {
		if m.cols[ci].kind != kindGMM {
			continue
		}
		vals := m.table.Columns[ci].Floats
		tr := m.cols[ci].trainer
		idx := rng.Perm(len(vals))
		batch := make([]float64, 0, cfg.BatchSize)
		for e := 0; e < cfg.Epochs; e++ {
			var nll float64
			for start := 0; start < len(idx); start += cfg.BatchSize {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				end := start + cfg.BatchSize
				if end > len(idx) {
					end = len(idx)
				}
				batch = batch[:0]
				for _, i := range idx[start:end] {
					batch = append(batch, vals[i])
				}
				nll += tr.Step(batch) * float64(len(batch))
			}
			if e == cfg.Epochs-1 {
				m.GMMLosses = append(m.GMMLosses, nll/float64(len(vals)))
			}
		}
	}
	n := m.table.NumRows()
	rows := makeRows(n, len(m.arm.Cards))
	for ri := 0; ri < n; ri++ {
		if err := m.encodeRow(ri, rows[ri]); err != nil {
			return err
		}
	}
	var err error
	m.ARLosses, err = m.arm.Fit(rows, nn.TrainConfig{
		LR: cfg.LR, BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Seed: cfg.Seed + 2,
		Ctx: ctx, MaxRetries: cfg.MaxRetries, MaxGradNorm: cfg.MaxGradNorm,
	})
	return err
}

func makeRows(n, cols int) [][]int {
	backing := make([]int, n*cols)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = backing[i*cols : (i+1)*cols]
	}
	return rows
}

func logitDim(arm *ar.Model) int {
	d := 0
	for _, c := range arm.Cards {
		d += c
	}
	return d
}

// initMasses gives every GMM and reducer column its §5.2 mass function and
// weights, once, when the model is built (TrainContext and Load). Under the
// default MassMonteCarlo that draws the column's one sorted set of
// GMMSamples standard-normal samples, seeded by (Seed, column) alone, so a
// trained model and its saved copy hold the same set and answer alike. The
// set and the Gaussian CDF read the mixture's current parameters, so
// neither is rebuilt when training moves them; only MassEmpirical is left
// dirty for refreshMassEstimatorsLocked to partition.
func (m *Model) initMasses() {
	for ci := range m.cols {
		info := &m.cols[ci]
		switch {
		case info.kind == kindReduced:
			info.mass = info.reducer.RangeMass
		case info.kind != kindGMM:
			continue
		case m.cfg.MassMode == MassMonteCarlo:
			rs := gmm.NewRangeSampler(m.cfg.GMMSamples, rand.New(rand.NewSource(m.cfg.Seed+7+int64(ci)<<32)))
			m.massBuilds++
			gm := info.gm
			info.mass = func(lo, hi float64, out []float64) { rs.Mass(gm, lo, hi, out) }
		case m.cfg.MassMode == MassExact:
			info.mass = info.gm.RangeMassExact
		}
		info.Card = m.arm.Cards[info.First]
		info.Weights = m.weightsFunc(ci)
	}
	m.massDirty = m.cfg.MassMode == MassEmpirical
}

// MassBuilds returns how many §5.2 Monte-Carlo sample sets and empirical
// partitions the model has built over its life, like nn.Session's
// TableBuilds: tests read it to show that this work happens when a model
// is trained or loaded, not at its first estimate.
func (m *Model) MassBuilds() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.massBuilds
}

// invalidateMasses marks the MassEmpirical partitions stale after training
// has moved the mixture parameters; the other modes read the parameters
// directly and stay current. Training runs on one goroutine while OnEpoch
// callbacks may estimate concurrently, so the flag flip takes the lock.
func (m *Model) invalidateMasses() {
	if m.cfg.MassMode != MassEmpirical {
		return
	}
	m.mu.Lock()
	m.massDirty = true
	m.mu.Unlock()
}

// refreshMassEstimatorsLocked rebuilds the MassEmpirical partition of every
// GMM column from the current component assignments. Callers hold m.mu (the
// Locked suffix names that contract).
func (m *Model) refreshMassEstimatorsLocked() {
	if !m.massDirty {
		return
	}
	for ci := range m.cols {
		if info := &m.cols[ci]; info.kind == kindGMM {
			info.mass = gmm.NewEmpirical(info.gm, m.table.Columns[ci].Floats).Mass
			m.massBuilds++
		}
	}
	m.massDirty = false
}

// weightsFunc returns the §5.2 weight function of weighted column ci: its
// current mass function or, under Uncorrected, all ones, admitting every
// component.
func (m *Model) weightsFunc(ci int) func(lo, hi float64, out []float64) {
	if m.cfg.Uncorrected {
		return func(_, _ float64, out []float64) {
			for j := range out {
				out[j] = 1
			}
		}
	}
	info := &m.cols[ci]
	return func(lo, hi float64, out []float64) { info.mass(lo, hi, out) }
}

// Name implements estimator.Estimator.
func (m *Model) Name() string { return "IAM" }

// Estimate implements estimator.Estimator using Algorithm 1.
func (m *Model) Estimate(q *query.Query) (float64, error) {
	res, err := m.EstimateBatch([]*query.Query{q})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// EstimateBatch estimates several queries in one stacked progressive-
// sampling run (§5.3). It holds only the read lock, so any number of calls
// proceed concurrently (each shard samples on a pooled worker session), and
// shards the queries across min(cfg.Workers, pending) goroutines. Each query
// draws from its content stream QuerySeed(q), so an estimate is a pure
// function of (model, query): the same under every Workers setting, at any
// batch position and alone (Estimate).
func (m *Model) EstimateBatch(qs []*query.Query) ([]float64, error) {
	return m.EstimateBatchSeeded(qs, nil)
}

// EstimateBatchSeeded is EstimateBatch with caller-chosen sampling streams:
// query i draws from qseeds[i] instead of QuerySeed(qs[i]). A nil qseeds
// reproduces EstimateBatch exactly. Explicit seeds draw independent estimates
// of one query (the unbiasedness and coverage tests).
func (m *Model) EstimateBatchSeeded(qs []*query.Query, qseeds []int64) ([]float64, error) {
	return m.estimateBatch(qs, qseeds, nil)
}

// EstimateBatchVarSeeded is EstimateBatchSeeded extended with the per-query
// Monte-Carlo variance of each estimate: vars[i] is the sample variance of
// the mean over query i's progressive-sampling paths (Var(paths)/S), the
// squared standard error the sharded ensemble's early-termination CI feeds
// on. Queries answered by exhaustive enumeration are exact and report
// variance 0. Estimates are bit-identical to EstimateBatchSeeded — the
// variance is a read-only second pass over the same path probabilities.
func (m *Model) EstimateBatchVarSeeded(qs []*query.Query, qseeds []int64) (ests, vars []float64, err error) {
	vars = make([]float64, len(qs))
	if ests, err = m.EstimateBatchVarInto(vars, qs, qseeds); err != nil {
		return nil, nil, err
	}
	return ests, vars, nil
}

// EstimateBatchVarInto is EstimateBatchVarSeeded with a caller-owned
// variance buffer: vars (len(qs)) is overwritten with each query's sampling
// variance, so a caller that reuses it — the sharded ensemble, once per
// shard visit — allocates no variance slice per call.
func (m *Model) EstimateBatchVarInto(vars []float64, qs []*query.Query, qseeds []int64) ([]float64, error) {
	if len(vars) != len(qs) {
		return nil, fmt.Errorf("core: variance buffer of %d for %d queries", len(vars), len(qs))
	}
	clear(vars)
	return m.estimateBatch(qs, qseeds, vars)
}

// estimateBatch is the one seeded estimate body behind both entry points. A
// non-nil vars (len(qs), zeroed) receives each query's sampling variance;
// exhaustively enumerated queries leave theirs at 0.
func (m *Model) estimateBatch(qs []*query.Query, qseeds []int64, vars []float64) ([]float64, error) {
	if qseeds != nil && len(qseeds) != len(qs) {
		return nil, fmt.Errorf("core: %d seeds for %d queries", len(qseeds), len(qs))
	}
	m.rlockFresh()
	defer m.mu.RUnlock()

	out := make([]float64, len(qs))
	nCols := len(m.arm.Cards)
	bs := m.getBatchScratch()
	defer m.putBatchScratch(bs)
	bs.prep(len(qs), nCols)
	for i, q := range qs {
		cons := bs.consRow(i, nCols)
		if err := m.buildConstraintsInto(q, &bs.arena, cons); err != nil {
			return nil, err
		}
		if m.cfg.ExhaustiveLimit > 0 {
			if est, ok := m.arm.EstimateExhaustive(cons, m.cfg.ExhaustiveLimit); ok {
				out[i] = est
				continue
			}
		}
		bs.pending = append(bs.pending, cons)
		if qseeds != nil {
			bs.seeds = append(bs.seeds, qseeds[i])
		} else {
			bs.seeds = append(bs.seeds, m.QuerySeed(q))
		}
		bs.slots = append(bs.slots, i)
	}
	if len(bs.pending) == 0 {
		return out, nil
	}
	if err := m.runPending(bs.pending, bs.seeds, bs.slots, out, vars); err != nil {
		return nil, err
	}
	return out, nil
}

// rlockFresh takes the read lock with the §5.2 masses current: when training
// left a MassEmpirical partition stale, it upgrades to the write lock for
// the one-time refresh, then downgrades. refreshMassEstimatorsLocked
// re-checks the flag under the write lock, so racing upgraders refresh
// exactly once. In the other modes the flag is never set and this is a
// plain RLock. Callers release with m.mu.RUnlock.
func (m *Model) rlockFresh() {
	m.mu.RLock()
	if m.massDirty {
		m.mu.RUnlock()
		m.mu.Lock()
		m.refreshMassEstimatorsLocked()
		m.mu.Unlock()
		m.mu.RLock()
	}
}

// runPending estimates the sampled queries and scatters results into out:
// query j lands in out[slots[j]] (slots == nil means out[j]). vars, when
// non-nil, receives each query's sampling variance in the same slots.
// Single-worker calls run inline on one pooled worker; otherwise the queries
// shard across min(cfg.Workers, len(pending)) goroutines.
func (m *Model) runPending(pending [][]ar.Constraint, seeds []int64, slots []int, out, vars []float64) error {
	nw := m.estimateWorkerCount(len(pending))
	if nw <= 1 {
		w := m.getWorker(len(pending) * m.cfg.NumSamples)
		defer m.putWorker(w)
		ests, err := m.arm.EstimateBatchScratch(w.sess, w.scratch, pending, m.cfg.NumSamples, seeds)
		if err != nil {
			return err
		}
		scatterShard(ests, w.scratch.Variances(), 0, slots, out, vars)
		return nil
	}

	chunk := (len(pending) + nw - 1) / nw
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for wi := 0; wi < nw; wi++ {
		lo := wi * chunk
		hi := lo + chunk
		if hi > len(pending) {
			hi = len(pending)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			m.estimateShard(wi, lo, hi, pending, seeds, slots, out, vars, errs)
		}(wi, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// estimateShard is the goroutine body of the batched-estimate fan-out:
// worker wi estimates pending[lo:hi] on a pooled session and scatters the
// results into its disjoint out (and vars) slots.
//
// Each query draws only from its seeds[i]-derived stream, so the results
// do not depend on worker count or scheduling.
func (m *Model) estimateShard(wi, lo, hi int, pending [][]ar.Constraint, seeds []int64, slots []int, out, vars []float64, errs []error) {
	w := m.getWorker((hi - lo) * m.cfg.NumSamples)
	defer m.putWorker(w)
	ests, err := m.arm.EstimateBatchScratch(w.sess, w.scratch, pending[lo:hi], m.cfg.NumSamples, seeds[lo:hi])
	if err != nil {
		errs[wi] = err
		return
	}
	scatterShard(ests, w.scratch.Variances(), lo, slots, out, vars)
}

// scatterShard lands one worker's estimates (and, when vars is non-nil, the
// matching sampling variances) into their batch-level slots: shard-local
// query j goes to slot slots[lo+j], or position lo+j when slots is nil.
//
// iam:noalloc
func scatterShard(ests, shardVars []float64, lo int, slots []int, out, vars []float64) {
	for j, v := range ests {
		slot := lo + j
		if slots != nil {
			slot = slots[lo+j]
		}
		out[slot] = v
		if vars != nil {
			vars[slot] = shardVars[j]
		}
	}
}

// buildConstraints performs the query construction q → q′ of §5.1 and
// attaches the bias-correction weights of §5.2. Convenience wrapper for the
// one-off callers (aggregates); the batched estimate path builds into
// a pooled arena via buildConstraintsInto instead.
func (m *Model) buildConstraints(q *query.Query) ([]ar.Constraint, error) {
	cons := make([]ar.Constraint, len(m.arm.Cards))
	if err := m.buildConstraintsInto(q, &ar.Arena{}, cons); err != nil {
		return nil, err
	}
	return cons, nil
}

// SizeBytes reports the model size: AR network parameters (float32) plus
// the GMM parameters (Tables 6 and 12).
func (m *Model) SizeBytes() int {
	s := m.arm.Net.SizeBytes()
	for ci := range m.cols {
		switch m.cols[ci].kind {
		case kindGMM:
			s += m.cols[ci].gm.SizeBytes()
		case kindReduced:
			s += m.cols[ci].reducer.SizeBytes()
		}
	}
	return s
}

// Table returns the table the model is bound to. Queries must target this
// exact table value (pointer identity); the sharded ensemble uses this to
// validate hot-swapped per-shard models against their shard's sub-table.
func (m *Model) Table() *dataset.Table { return m.table }

// GMMFor exposes the fitted mixture of column name (nil if the column is
// not GMM-reduced) — used by diagnostics and examples.
func (m *Model) GMMFor(name string) *gmm.Model {
	ci := m.table.ColumnIndex(name)
	if ci < 0 || m.cols[ci].kind != kindGMM {
		return nil
	}
	return m.cols[ci].gm
}

// ARColumns returns the AR column cardinalities (after reduction), useful
// for inspecting how much the sample space shrank.
func (m *Model) ARColumns() []int { return append([]int(nil), m.arm.Cards...) }
