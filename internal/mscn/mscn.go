// Package mscn implements the multi-set convolutional network baseline
// (paper §6.1.2, after Kipf et al.): a query-driven supervised estimator.
// Each predicate is featurized as (column one-hot, operator one-hot,
// normalized value) and passed through a shared set-module MLP whose outputs
// are average-pooled; a bitmap of materialized sample rows hit by the query
// feeds a second module; a final MLP regresses the normalized log
// selectivity through a sigmoid. Training minimizes MSE against the training
// workload's true selectivities.
package mscn

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"iam/internal/dataset"
	"iam/internal/nn"
	"iam/internal/query"
	"iam/internal/vecmath"
)

// Config controls architecture and training.
type Config struct {
	Hidden    int // set/bitmap module hidden width (default 64)
	PoolDim   int // pooled representation width (default 32)
	Samples   int // materialized bitmap sample size (default 500)
	Epochs    int // default 30
	BatchSize int // default 64
	LR        float64
	Seed      int64
}

func (c *Config) fillDefaults() {
	if c.Hidden <= 0 {
		c.Hidden = 64
	}
	if c.PoolDim <= 0 {
		c.PoolDim = 32
	}
	if c.Samples <= 0 {
		c.Samples = 500
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
}

// Estimator is the trained MSCN model.
type Estimator struct {
	table   *dataset.Table
	cfg     Config
	predNet *nn.MLP
	bitNet  *nn.MLP
	outNet  *nn.MLP

	predState *nn.MLPState
	predCap   int
	bitState  *nn.MLPState
	outState  *nn.MLPState

	samples  [][]float64 // materialized rows for bitmaps
	colLo    []float64
	colSpan  []float64
	floorLog float64 // log(1/|T|), the normalization floor
}

// predicate feature layout: [col onehot d][op onehot 3][value 1].
func (e *Estimator) predDim() int { return e.table.NumCols() + 4 }

// New trains MSCN on a labelled workload.
func New(t *dataset.Table, train *query.Workload, cfg Config) (*Estimator, error) {
	return NewContext(context.Background(), t, train, cfg)
}

// NewContext is New with cancellation: cancelling ctx stops training between
// mini-batches and returns the context's error.
func NewContext(ctx context.Context, t *dataset.Table, train *query.Workload, cfg Config) (*Estimator, error) {
	cfg.fillDefaults()
	if len(train.Queries) == 0 || len(train.Queries) != len(train.TrueSel) {
		return nil, fmt.Errorf("mscn: needs a labelled training workload")
	}
	e := &Estimator{table: t, cfg: cfg, floorLog: math.Log(1 / float64(t.NumRows()))}
	e.colLo = make([]float64, t.NumCols())
	e.colSpan = make([]float64, t.NumCols())
	for j, c := range t.Columns {
		if c.Kind == dataset.Categorical {
			e.colSpan[j] = math.Max(float64(c.Card-1), 1)
			continue
		}
		lo, hi, err := c.MinMax()
		if err != nil {
			return nil, fmt.Errorf("mscn: column %s: %w", c.Name, err)
		}
		e.colLo[j] = lo
		e.colSpan[j] = math.Max(hi-lo, 1e-9)
	}

	// Materialize the bitmap sample.
	rng := rand.New(rand.NewSource(cfg.Seed))
	ns := cfg.Samples
	if ns > t.NumRows() {
		ns = t.NumRows()
	}
	for _, ri := range rng.Perm(t.NumRows())[:ns] {
		row := make([]float64, t.NumCols())
		for j, c := range t.Columns {
			if c.Kind == dataset.Categorical {
				row[j] = float64(c.Ints[ri])
			} else {
				row[j] = c.Floats[ri]
			}
		}
		e.samples = append(e.samples, row)
	}

	var err error
	if e.predNet, err = nn.NewMLP([]int{e.predDim(), cfg.Hidden, cfg.PoolDim}, cfg.Seed+1); err != nil {
		return nil, err
	}
	if e.bitNet, err = nn.NewMLP([]int{len(e.samples), cfg.Hidden, cfg.PoolDim}, cfg.Seed+2); err != nil {
		return nil, err
	}
	if e.outNet, err = nn.NewMLP([]int{2 * cfg.PoolDim, cfg.Hidden, 1}, cfg.Seed+3); err != nil {
		return nil, err
	}
	maxPreds := cfg.BatchSize * 2 * t.NumCols()
	e.predState = e.predNet.NewState(maxPreds)
	e.predCap = maxPreds
	e.bitState = e.bitNet.NewState(cfg.BatchSize)
	e.outState = e.outNet.NewState(cfg.BatchSize)

	if err := e.train(ctx, train, rng); err != nil {
		return nil, err
	}
	return e, nil
}

// target maps a selectivity to the normalized-log regression target [0, 1].
func (e *Estimator) target(sel float64) float64 {
	l := math.Log(math.Max(sel, math.Exp(e.floorLog)))
	return 1 - l/e.floorLog
}

// invert maps a regression output back to a selectivity.
func (e *Estimator) invert(y float64) float64 {
	return math.Exp((1 - vecmath.Clamp(y, 0, 1)) * e.floorLog)
}

// featurize builds the per-predicate feature rows of one query.
func (e *Estimator) featurize(q *query.Query) [][]float64 {
	var rows [][]float64
	d := e.table.NumCols()
	add := func(col int, op int, v float64) {
		f := make([]float64, e.predDim())
		f[col] = 1
		f[d+op] = 1
		f[d+3] = vecmath.Clamp((v-e.colLo[col])/e.colSpan[col], 0, 1)
		rows = append(rows, f)
	}
	for j, r := range q.Ranges {
		if r == nil {
			continue
		}
		if r.Lo == r.Hi && r.LoInc && r.HiInc {
			add(j, 0, r.Lo) // =
			continue
		}
		if !math.IsInf(r.Lo, -1) {
			add(j, 2, r.Lo) // ≥
		}
		if !math.IsInf(r.Hi, 1) {
			add(j, 1, r.Hi) // ≤
		}
	}
	if len(rows) == 0 {
		f := make([]float64, e.predDim())
		rows = append(rows, f) // "no predicate" token
	}
	return rows
}

// bitmap evaluates the query against the materialized sample.
func (e *Estimator) bitmap(q *query.Query) []float64 {
	bits := make([]float64, len(e.samples))
	for i, row := range e.samples {
		ok := true
		for j, r := range q.Ranges {
			if r == nil {
				continue
			}
			if !r.Contains(row[j]) {
				ok = false
				break
			}
		}
		if ok {
			bits[i] = 1
		}
	}
	return bits
}

// train runs mini-batch Adam on MSE of the sigmoid output.
func (e *Estimator) train(ctx context.Context, train *query.Workload, rng *rand.Rand) error {
	cfg := e.cfg
	n := len(train.Queries)
	idx := rng.Perm(n)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			batch := idx[start:end]
			e.trainBatch(train, batch)
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return nil
}

func (e *Estimator) trainBatch(train *query.Workload, batch []int) {
	b := len(batch)
	poolDim := e.cfg.PoolDim

	// Gather predicate rows for the whole batch.
	var predRows [][]float64
	counts := make([]int, b)
	for bi, qi := range batch {
		rows := e.featurize(train.Queries[qi])
		counts[bi] = len(rows)
		predRows = append(predRows, rows...)
	}
	predIn := vecmath.NewMatrix(len(predRows), e.predDim())
	for i, r := range predRows {
		copy(predIn.Row(i), r)
	}
	e.ensurePredState(predIn.Rows)
	e.predNet.Forward(e.predState, predIn)
	predOut := e.predNet.Output(e.predState)

	bitIn := vecmath.NewMatrix(b, len(e.samples))
	for bi, qi := range batch {
		copy(bitIn.Row(bi), e.bitmap(train.Queries[qi]))
	}
	e.bitNet.Forward(e.bitState, bitIn)
	bitOut := e.bitNet.Output(e.bitState)

	// Concatenate pooled predicate vectors with bitmap vectors.
	outIn := vecmath.NewMatrix(b, 2*poolDim)
	off := 0
	for bi := 0; bi < b; bi++ {
		dst := outIn.Row(bi)
		for k := 0; k < counts[bi]; k++ {
			vecmath.Axpy(1/float64(counts[bi]), predOut.Row(off+k), dst[:poolDim])
		}
		copy(dst[poolDim:], bitOut.Row(bi))
		off += counts[bi]
	}
	e.outNet.Forward(e.outState, outIn)
	out := e.outNet.Output(e.outState)

	// MSE on sigmoid(out) vs normalized log target.
	dOut := vecmath.NewMatrix(b, 1)
	for bi, qi := range batch {
		s := sigmoid(out.Row(bi)[0])
		y := e.target(train.TrueSel[qi])
		dOut.Row(bi)[0] = 2 * (s - y) * s * (1 - s)
	}

	dOutIn := vecmath.NewMatrix(b, 2*poolDim)
	e.outNet.ZeroGrad()
	e.outNet.Backward(e.outState, dOut, dOutIn)

	// Split the concatenated gradient back to the two modules.
	dBit := vecmath.NewMatrix(b, poolDim)
	dPred := vecmath.NewMatrix(predIn.Rows, poolDim)
	off = 0
	for bi := 0; bi < b; bi++ {
		src := dOutIn.Row(bi)
		copy(dBit.Row(bi), src[poolDim:])
		for k := 0; k < counts[bi]; k++ {
			vecmath.Axpy(1/float64(counts[bi]), src[:poolDim], dPred.Row(off+k))
		}
		off += counts[bi]
	}
	e.bitNet.ZeroGrad()
	e.bitNet.Backward(e.bitState, dBit, nil)
	e.predNet.ZeroGrad()
	e.predNet.Backward(e.predState, dPred, nil)

	scale := 1 / float64(b)
	e.outNet.AdamStep(e.cfg.LR, scale)
	e.bitNet.AdamStep(e.cfg.LR, scale)
	e.predNet.AdamStep(e.cfg.LR, scale)
}

// ensurePredState grows the set-module activation buffers when a batch has
// more predicates than any before it.
func (e *Estimator) ensurePredState(n int) {
	if n > e.predCap {
		e.predState = e.predNet.NewState(n)
		e.predCap = n
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Name implements estimator.Estimator.
func (e *Estimator) Name() string { return "MSCN" }

// SizeBytes reports network plus sample storage (the bitmap sample is part
// of the model, as in the paper's Table 6 where MSCN is ~2.5 MB).
func (e *Estimator) SizeBytes() int {
	s := e.predNet.SizeBytes() + e.bitNet.SizeBytes() + e.outNet.SizeBytes()
	s += 8 * len(e.samples) * e.table.NumCols()
	return s
}

// Estimate implements estimator.Estimator.
func (e *Estimator) Estimate(q *query.Query) (float64, error) {
	res, err := e.EstimateBatch([]*query.Query{q})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// EstimateBatch runs the forward pass for a batch of queries.
func (e *Estimator) EstimateBatch(qs []*query.Query) ([]float64, error) {
	out := make([]float64, len(qs))
	poolDim := e.cfg.PoolDim
	for start := 0; start < len(qs); start += e.cfg.BatchSize {
		end := start + e.cfg.BatchSize
		if end > len(qs) {
			end = len(qs)
		}
		chunk := qs[start:end]
		b := len(chunk)
		var predRows [][]float64
		counts := make([]int, b)
		for bi, q := range chunk {
			if q.Table != e.table {
				return nil, fmt.Errorf("mscn: query targets table %q", q.Table.Name)
			}
			rows := e.featurize(q)
			counts[bi] = len(rows)
			predRows = append(predRows, rows...)
		}
		predIn := vecmath.NewMatrix(len(predRows), e.predDim())
		for i, r := range predRows {
			copy(predIn.Row(i), r)
		}
		e.ensurePredState(predIn.Rows)
		e.predNet.Forward(e.predState, predIn)
		predOut := e.predNet.Output(e.predState)

		bitIn := vecmath.NewMatrix(b, len(e.samples))
		for bi, q := range chunk {
			copy(bitIn.Row(bi), e.bitmap(q))
		}
		e.bitNet.Forward(e.bitState, bitIn)
		bitOut := e.bitNet.Output(e.bitState)

		outIn := vecmath.NewMatrix(b, 2*poolDim)
		off := 0
		for bi := 0; bi < b; bi++ {
			dst := outIn.Row(bi)
			for k := 0; k < counts[bi]; k++ {
				vecmath.Axpy(1/float64(counts[bi]), predOut.Row(off+k), dst[:poolDim])
			}
			copy(dst[poolDim:], bitOut.Row(bi))
			off += counts[bi]
		}
		e.outNet.Forward(e.outState, outIn)
		res := e.outNet.Output(e.outState)
		for bi := 0; bi < b; bi++ {
			out[start+bi] = e.invert(sigmoid(res.Row(bi)[0]))
		}
	}
	return out, nil
}
