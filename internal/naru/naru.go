// Package naru implements the Naru/NeuroCard baseline (paper §6.1.2): a
// ResMADE autoregressive model over ordinally encoded columns, with
// NeuroCard's column factorization for large domains, wildcard-skipping
// training, and vanilla progressive sampling for range queries. It is
// exactly IAM minus the GMM domain reduction — continuous attributes keep
// their full ordinal domains, which is the weakness IAM targets.
package naru

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"iam/internal/ar"
	"iam/internal/dataset"
	"iam/internal/nn"
	"iam/internal/query"
)

// Config controls training.
type Config struct {
	// MaxSubColumn caps per-column domains; larger ordinal domains are
	// factored into subcolumns (NeuroCard §4.2; default 256 at our scale,
	// the paper uses 2^11 at millions of distinct values).
	MaxSubColumn int
	Hidden       []int
	EmbedDim     int
	Epochs       int
	BatchSize    int
	LR           float64
	NumSamples   int // progressive-sampling paths per query
	Seed         int64
	// ColumnOrder optionally permutes the autoregressive column order
	// (ablation; paper §4.3 reports left-to-right natural order works
	// well). Identity when nil.
	ColumnOrder []int
	// OnEpoch mirrors core.Config.OnEpoch (AR loss only).
	OnEpoch func(epoch int, nll float64) bool
}

func (c *Config) fillDefaults() {
	if c.MaxSubColumn <= 1 {
		c.MaxSubColumn = 256
	}
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128, 64, 64, 128}
	}
	if c.EmbedDim <= 0 {
		c.EmbedDim = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	// Epochs < 0 means "no data training" (used by UAE-Q, which learns the
	// AR model from queries only).
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.LR <= 0 {
		c.LR = 2e-3
	}
	if c.NumSamples <= 0 {
		c.NumSamples = 800
	}
}

// colInfo maps one original column onto AR columns.
type colInfo struct {
	arFirst  int
	arCount  int
	enc      *dataset.ColumnEncoder
	factored bool
	factor   dataset.FactorSpec
}

// Model is a trained Naru/NeuroCard estimator.
type Model struct {
	table *dataset.Table
	cfg   Config
	order []int // order[k] = original column index at AR position k group
	cols  []colInfo
	arm   *ar.Model

	Losses []float64

	// mu guards the shared inference state: Estimate may be called from
	// multiple goroutines.
	mu      sync.Mutex
	sess    *nn.Session         // iam:guardedby mu
	sessCap int                 // iam:guardedby mu
	sc      *ar.EstimateScratch // iam:guardedby mu
	rng     *rand.Rand          // iam:guardedby mu
}

// Train fits the model on t.
func Train(t *dataset.Table, cfg Config) (*Model, error) {
	return TrainContext(context.Background(), t, cfg)
}

// TrainContext is Train with cancellation: cancelling ctx stops the training
// loop between mini-batches and returns the context's error.
func TrainContext(ctx context.Context, t *dataset.Table, cfg Config) (*Model, error) {
	cfg.fillDefaults()
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("naru: empty table")
	}
	order := cfg.ColumnOrder
	if order == nil {
		order = make([]int, t.NumCols())
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != t.NumCols() {
		return nil, fmt.Errorf("naru: column order has %d entries for %d columns", len(order), t.NumCols())
	}

	m := &Model{table: t, cfg: cfg, order: order, cols: make([]colInfo, t.NumCols())}
	var cards []int
	for _, ci := range order {
		c := t.Columns[ci]
		info := colInfo{arFirst: len(cards), enc: dataset.BuildEncoder(c)}
		if info.enc.Card > cfg.MaxSubColumn {
			info.factored = true
			spec, err := dataset.NewFactorSpec(info.enc.Card, cfg.MaxSubColumn)
			if err != nil {
				return nil, err
			}
			info.factor = spec
			info.arCount = len(info.factor.Bases)
			cards = append(cards, info.factor.Bases...)
		} else {
			info.arCount = 1
			cards = append(cards, info.enc.Card)
		}
		m.cols[ci] = info
	}
	if len(cards) < 2 {
		return nil, fmt.Errorf("naru: need ≥ 2 AR columns")
	}

	arm, err := ar.New(cards, cfg.Hidden, cfg.EmbedDim, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	m.arm = arm

	// Encode all rows and train (skipped entirely when Epochs < 0, the
	// UAE-Q query-only mode).
	if cfg.Epochs > 0 {
		n := t.NumRows()
		rows := make([][]int, n)
		backing := make([]int, n*len(cards))
		for i := range rows {
			rows[i] = backing[i*len(cards) : (i+1)*len(cards)]
			if err := m.encodeRow(i, rows[i]); err != nil {
				return nil, err
			}
		}
		m.Losses, err = arm.Fit(rows, nn.TrainConfig{
			LR: cfg.LR, BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Seed: cfg.Seed + 2,
			OnEpoch: cfg.OnEpoch, Ctx: ctx,
		})
		if err != nil {
			return nil, err
		}
	}

	m.sessCap = cfg.NumSamples
	m.sess = arm.Net.NewSession(m.sessCap)
	m.sc = ar.NewEstimateScratch()
	m.rng = rand.New(rand.NewSource(cfg.Seed + 3))
	return m, nil
}

// encodeRow writes AR codes for table row ri.
func (m *Model) encodeRow(ri int, dst []int) error {
	for _, ci := range m.order {
		info := &m.cols[ci]
		code, err := m.rawCode(ci, ri)
		if err != nil {
			return fmt.Errorf("naru: encoding row %d: %w", ri, err)
		}
		if info.factored {
			info.factor.SplitInto(dst[info.arFirst:info.arFirst+info.arCount], code)
		} else {
			dst[info.arFirst] = code
		}
	}
	return nil
}

func (m *Model) rawCode(ci, ri int) (int, error) {
	c := m.table.Columns[ci]
	if c.Kind == dataset.Categorical {
		return c.Ints[ri], nil
	}
	return m.cols[ci].enc.EncodeFloat(c.Floats[ri])
}

// Name implements estimator.Estimator.
func (m *Model) Name() string { return "Neurocard" }

// SizeBytes reports the network parameter size (float32-equivalent).
func (m *Model) SizeBytes() int { return m.arm.Net.SizeBytes() }

// ARColumns returns the AR column cardinalities.
func (m *Model) ARColumns() []int { return append([]int(nil), m.arm.Cards...) }

// BuildConstraints converts a query into per-AR-column sampling constraints
// (exported for UAE, which trains through the same machinery).
func (m *Model) BuildConstraints(q *query.Query) ([]ar.Constraint, error) {
	if q.Table != m.table {
		return nil, fmt.Errorf("naru: query targets table %q, model trained on %q", q.Table.Name, m.table.Name)
	}
	cons := make([]ar.Constraint, len(m.arm.Cards))
	for ci, r := range q.Ranges {
		if r == nil {
			continue
		}
		info := &m.cols[ci]
		loCode, hiCode, ok, err := info.enc.RangeToCodes(r.Lo, r.Hi, r.LoInc, r.HiInc)
		if err != nil {
			return nil, err
		}
		if !ok {
			cons[info.arFirst] = ar.EmptyConstraint{}
			continue
		}
		if !info.factored {
			cons[info.arFirst] = ar.RangeConstraint{Lo: loCode, Hi: hiCode}
			continue
		}
		for p := 0; p < info.arCount; p++ {
			cons[info.arFirst+p] = ar.FactoredConstraint{
				Spec: info.factor, Part: p, FirstCol: info.arFirst,
				Lo: loCode, Hi: hiCode,
			}
		}
	}
	return cons, nil
}

// Estimate implements estimator.Estimator via progressive sampling.
func (m *Model) Estimate(q *query.Query) (float64, error) {
	res, err := m.EstimateBatch([]*query.Query{q})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// EstimateBatch stacks several queries into one sampling run (Table 7).
// Each query samples from its own seed, drawn in order from the model's rng.
func (m *Model) EstimateBatch(qs []*query.Query) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	consList := make([][]ar.Constraint, len(qs))
	seeds := make([]int64, len(qs))
	for i, q := range qs {
		cons, err := m.BuildConstraints(q)
		if err != nil {
			return nil, err
		}
		consList[i] = cons
		seeds[i] = m.rng.Int63()
	}
	need := len(qs) * m.cfg.NumSamples
	if need > m.sessCap {
		m.sessCap = need
		m.sess = m.arm.Net.NewSession(need)
	}
	ests, err := m.arm.EstimateBatchScratch(m.sess, m.sc, consList, m.cfg.NumSamples, seeds)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), ests...), nil
}

// AR exposes the underlying autoregressive model (for UAE).
func (m *Model) AR() *ar.Model { return m.arm }

// NumSamples exposes the configured sampling width (for UAE).
func (m *Model) NumSamples() int { return m.cfg.NumSamples }
