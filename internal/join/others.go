package join

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"iam/internal/dataset"
	"iam/internal/nn"
	"iam/internal/pghist"
	"iam/internal/query"
	"iam/internal/spn"
	"iam/internal/vecmath"
)

// PGJoin mimics the Postgres optimizer's join cardinality estimation:
// per-table selectivities come from 1-D statistics with the independence
// assumption, and the join size is estimated from per-key uniformity
// (|T1 ⋈ T2| ≈ |T1|·|T2| / distinct join keys), which for a star FK join
// collapses to |child| per root row on average.
type PGJoin struct {
	schema *Schema
	root   *pghist.Estimator
	kids   []*pghist.Estimator
}

// NewPGJoin builds per-table Postgres-style statistics.
func NewPGJoin(s *Schema, cfg pghist.Config) (*PGJoin, error) {
	root, err := pghist.New(s.Root, cfg)
	if err != nil {
		return nil, err
	}
	e := &PGJoin{schema: s, root: root}
	for ci := range s.Children {
		k, err := pghist.New(s.Children[ci].Table, cfg)
		if err != nil {
			return nil, err
		}
		e.kids = append(e.kids, k)
	}
	return e, nil
}

// Name implements the estimator naming convention.
func (e *PGJoin) Name() string { return "Postgres" }

// SizeBytes sums the per-table statistics.
func (e *PGJoin) SizeBytes() int {
	s := e.root.SizeBytes()
	for _, k := range e.kids {
		s += k.SizeBytes()
	}
	return s
}

// EstimateCard multiplies per-table selectivities into the uniform-fanout
// join-size estimate.
func (e *PGJoin) EstimateCard(jq *JoinQuery) (float64, error) {
	card := float64(e.schema.Root.NumRows())
	if jq.Root != nil {
		sel, err := e.root.Estimate(jq.Root)
		if err != nil {
			return 0, err
		}
		card *= sel
	}
	// Iterate children in sorted-name order: float multiplication is not
	// associative, and map order is randomized per run.
	names := make([]string, 0, len(jq.Children))
	for name := range jq.Children {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q := jq.Children[name]
		ci, err := e.schema.childIndexByName(name)
		if err != nil {
			return 0, err
		}
		child := &e.schema.Children[ci]
		// Uniform FK assumption: each root row matches
		// |child| / |root| child rows on average.
		avgFanout := float64(child.Table.NumRows()) / float64(e.schema.Root.NumRows())
		sel := 1.0
		if q != nil {
			sel, err = e.kids[ci].Estimate(q)
			if err != nil {
				return 0, err
			}
		}
		card *= avgFanout * sel
	}
	return card, nil
}

// SPNJoin is the DeepDB-style join estimator: an SPN learned over the
// flattened full-outer-join sample (indicator and fanout columns included),
// evaluated with fanout-expectation correction.
type SPNJoin struct {
	schema *Schema
	flat   *Flattened
	model  *spn.Estimator
}

// NewSPNJoin learns the SPN over sampleRows join samples.
func NewSPNJoin(s *Schema, sampleRows int, cfg spn.Config) (*SPNJoin, error) {
	if sampleRows <= 0 {
		sampleRows = 20000
	}
	flat, err := s.Flatten(sampleRows, cfg.Seed+21)
	if err != nil {
		return nil, err
	}
	model, err := spn.New(flat.Table, cfg)
	if err != nil {
		return nil, err
	}
	return &SPNJoin{schema: s, flat: flat, model: model}, nil
}

// Name implements the estimator naming convention.
func (e *SPNJoin) Name() string { return "DeepDB" }

// SizeBytes reports the SPN size.
func (e *SPNJoin) SizeBytes() int { return e.model.SizeBytes() }

// EstimateCard evaluates |J|·E[preds · indicators · Π 1/fanout_unqueried].
func (e *SPNJoin) EstimateCard(jq *JoinQuery) (float64, error) {
	q := query.NewQuery(e.flat.Table)
	g := map[int]func(float64) float64{}

	if jq.Root != nil {
		if jq.Root.Table != e.schema.Root {
			return 0, fmt.Errorf("join: root query bound to table %q", jq.Root.Table.Name)
		}
		for j, r := range jq.Root.Ranges {
			if r == nil {
				continue
			}
			fi := e.flat.FlatIndex(e.schema.Root.Name, j)
			cp := *r
			q.Ranges[fi] = &cp
		}
	}
	for ci := range e.schema.Children {
		child := &e.schema.Children[ci]
		cq, inJoin := jq.Children[child.Table.Name]
		if inJoin {
			indFi := e.flat.IndicatorIndex(ci)
			q.Ranges[indFi] = &query.Interval{Lo: 1, Hi: 1, LoInc: true, HiInc: true}
			if cq != nil {
				for j, r := range cq.Ranges {
					if r == nil {
						continue
					}
					fi := e.flat.FlatIndex(child.Table.Name, j)
					cp := *r
					q.Ranges[fi] = &cp
				}
			}
			continue
		}
		fanFi := e.flat.FanoutIndex(ci)
		vals := e.flat.FanoutValues[ci]
		g[fanFi] = func(code float64) float64 {
			k := int(code)
			if k < 0 || k >= len(vals) {
				return 0
			}
			return 1 / vals[k]
		}
	}
	p, err := e.model.EstimateExpectation(q, g)
	if err != nil {
		return 0, err
	}
	return p * e.flat.JoinSize, nil
}

// MSCNJoin is the MSCN baseline extended to joins: predicate features gain
// table-qualified columns, the query featurization includes a join-graph
// one-hot, and per-table sample bitmaps are concatenated. It regresses
// normalized log cardinality (relative to |J|).
type MSCNJoin struct {
	schema  *Schema
	predNet *nn.MLP
	bitNet  *nn.MLP
	outNet  *nn.MLP

	predState *nn.MLPState
	predCap   int
	bitState  *nn.MLPState
	outState  *nn.MLPState

	// Per table: sampled rows (values per column) for bitmaps.
	samples map[string][][]float64
	colLo   map[string][]float64
	colSpan map[string][]float64
	// flatCols maps (table, col) to a dense feature index.
	featIdx  map[string]int
	nFeat    int
	bitsDim  int
	joinSize float64
	floorLog float64
	batch    int
	lr       float64
}

// MSCNJoinConfig controls the join MSCN.
type MSCNJoinConfig struct {
	Hidden    int
	PoolDim   int
	Samples   int // per-table bitmap sample
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	// Ctx optionally carries a cancellation context into training (mirrors
	// nn.TrainConfig.Ctx); nil means context.Background().
	Ctx context.Context
}

// NewMSCNJoin trains the model on a labelled join workload.
func NewMSCNJoin(s *Schema, train *JoinWorkload, cfg MSCNJoinConfig) (*MSCNJoin, error) {
	if len(train.Queries) == 0 || len(train.Queries) != len(train.Cards) {
		return nil, fmt.Errorf("join: MSCN needs a labelled workload")
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 64
	}
	if cfg.PoolDim <= 0 {
		cfg.PoolDim = 32
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 300
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	e := &MSCNJoin{
		schema:   s,
		samples:  map[string][][]float64{},
		colLo:    map[string][]float64{},
		colSpan:  map[string][]float64{},
		featIdx:  map[string]int{},
		joinSize: s.FullJoinSize(),
		batch:    cfg.BatchSize,
		lr:       cfg.LR,
	}
	e.floorLog = math.Log(1 / e.joinSize)

	rng := rand.New(rand.NewSource(cfg.Seed))
	tables := append([]*dataset.Table{s.Root}, childTables(s)...)
	for _, t := range tables {
		lo := make([]float64, t.NumCols())
		span := make([]float64, t.NumCols())
		for j, c := range t.Columns {
			e.featIdx[t.Name+"."+c.Name] = e.nFeat
			e.nFeat++
			if c.Kind == dataset.Categorical {
				span[j] = math.Max(float64(c.Card-1), 1)
			} else {
				l, h, err := c.MinMax()
				if err != nil {
					return nil, fmt.Errorf("join: column %s: %w", c.Name, err)
				}
				lo[j] = l
				span[j] = math.Max(h-l, 1e-9)
			}
		}
		e.colLo[t.Name] = lo
		e.colSpan[t.Name] = span
		// Sample rows for the bitmap.
		ns := cfg.Samples
		if ns > t.NumRows() {
			ns = t.NumRows()
		}
		var rows [][]float64
		for _, ri := range rng.Perm(t.NumRows())[:ns] {
			row := make([]float64, t.NumCols())
			for j, c := range t.Columns {
				if c.Kind == dataset.Categorical {
					row[j] = float64(c.Ints[ri])
				} else {
					row[j] = c.Floats[ri]
				}
			}
			rows = append(rows, row)
		}
		e.samples[t.Name] = rows
		e.bitsDim += ns
	}
	// bits plus join-graph membership one-hot per child.
	e.bitsDim += len(s.Children)

	var err error
	predDim := e.nFeat + 4
	if e.predNet, err = nn.NewMLP([]int{predDim, cfg.Hidden, cfg.PoolDim}, cfg.Seed+1); err != nil {
		return nil, err
	}
	if e.bitNet, err = nn.NewMLP([]int{e.bitsDim, cfg.Hidden, cfg.PoolDim}, cfg.Seed+2); err != nil {
		return nil, err
	}
	if e.outNet, err = nn.NewMLP([]int{2 * cfg.PoolDim, cfg.Hidden, 1}, cfg.Seed+3); err != nil {
		return nil, err
	}
	e.predCap = cfg.BatchSize * 4 * e.nFeat
	e.predState = e.predNet.NewState(e.predCap)
	e.bitState = e.bitNet.NewState(cfg.BatchSize)
	e.outState = e.outNet.NewState(cfg.BatchSize)

	// Training loop.
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(train.Queries)
	idx := rng.Perm(n)
	for ep := 0; ep < cfg.Epochs; ep++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			e.trainBatch(train, idx[start:end], cfg.PoolDim)
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return e, nil
}

func childTables(s *Schema) []*dataset.Table {
	out := make([]*dataset.Table, len(s.Children))
	for i := range s.Children {
		out[i] = s.Children[i].Table
	}
	return out
}

// featurize returns per-predicate feature rows for a join query.
func (e *MSCNJoin) featurize(jq *JoinQuery) [][]float64 {
	var rows [][]float64
	dim := e.nFeat + 4
	add := func(table string, colName string, colIdx int, op int, v float64) {
		f := make([]float64, dim)
		f[e.featIdx[table+"."+colName]] = 1
		f[e.nFeat+op] = 1
		f[e.nFeat+3] = vecmath.Clamp(
			(v-e.colLo[table][colIdx])/e.colSpan[table][colIdx], 0, 1)
		rows = append(rows, f)
	}
	collect := func(t *dataset.Table, q *query.Query) {
		if q == nil {
			return
		}
		for j, r := range q.Ranges {
			if r == nil {
				continue
			}
			name := t.Columns[j].Name
			if r.Lo == r.Hi && r.LoInc && r.HiInc {
				add(t.Name, name, j, 0, r.Lo)
				continue
			}
			if !math.IsInf(r.Lo, -1) {
				add(t.Name, name, j, 2, r.Lo)
			}
			if !math.IsInf(r.Hi, 1) {
				add(t.Name, name, j, 1, r.Hi)
			}
		}
	}
	collect(e.schema.Root, jq.Root)
	for ci := range e.schema.Children {
		t := e.schema.Children[ci].Table
		if q, ok := jq.Children[t.Name]; ok {
			collect(t, q)
		}
	}
	if len(rows) == 0 {
		rows = append(rows, make([]float64, dim))
	}
	return rows
}

// bitmap concatenates per-table sample hit bits and join-graph membership.
func (e *MSCNJoin) bitmap(jq *JoinQuery) []float64 {
	bits := make([]float64, 0, e.bitsDim)
	eval := func(t *dataset.Table, q *query.Query) {
		for _, row := range e.samples[t.Name] {
			hit := 1.0
			if q != nil {
				for j, r := range q.Ranges {
					if r == nil {
						continue
					}
					if !r.Contains(row[j]) {
						hit = 0
						break
					}
				}
			}
			bits = append(bits, hit)
		}
	}
	eval(e.schema.Root, jq.Root)
	for ci := range e.schema.Children {
		t := e.schema.Children[ci].Table
		q := jq.Children[t.Name]
		eval(t, q)
	}
	for ci := range e.schema.Children {
		if _, ok := jq.Children[e.schema.Children[ci].Table.Name]; ok {
			bits = append(bits, 1)
		} else {
			bits = append(bits, 0)
		}
	}
	return bits
}

func (e *MSCNJoin) target(card float64) float64 {
	l := math.Log(math.Max(card, 1) / e.joinSize)
	return 1 - l/e.floorLog
}

func (e *MSCNJoin) invert(y float64) float64 {
	return math.Exp((1-vecmath.Clamp(y, 0, 1))*e.floorLog) * e.joinSize
}

func (e *MSCNJoin) trainBatch(train *JoinWorkload, batch []int, poolDim int) {
	b := len(batch)
	var predRows [][]float64
	counts := make([]int, b)
	for bi, qi := range batch {
		rows := e.featurize(train.Queries[qi])
		counts[bi] = len(rows)
		predRows = append(predRows, rows...)
	}
	predIn := vecmath.NewMatrix(len(predRows), e.nFeat+4)
	for i, r := range predRows {
		copy(predIn.Row(i), r)
	}
	if predIn.Rows > e.predCap {
		e.predState = e.predNet.NewState(predIn.Rows)
		e.predCap = predIn.Rows
	}
	e.predNet.Forward(e.predState, predIn)
	predOut := e.predNet.Output(e.predState)

	bitIn := vecmath.NewMatrix(b, e.bitsDim)
	for bi, qi := range batch {
		copy(bitIn.Row(bi), e.bitmap(train.Queries[qi]))
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
	out := e.outNet.Output(e.outState)

	dOut := vecmath.NewMatrix(b, 1)
	for bi, qi := range batch {
		sg := 1 / (1 + math.Exp(-out.Row(bi)[0]))
		y := e.target(train.Cards[qi])
		dOut.Row(bi)[0] = 2 * (sg - y) * sg * (1 - sg)
	}
	dOutIn := vecmath.NewMatrix(b, 2*poolDim)
	e.outNet.ZeroGrad()
	e.outNet.Backward(e.outState, dOut, dOutIn)

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
	e.outNet.AdamStep(e.lr, scale)
	e.bitNet.AdamStep(e.lr, scale)
	e.predNet.AdamStep(e.lr, scale)
}

// Name implements the estimator naming convention.
func (e *MSCNJoin) Name() string { return "MSCN" }

// SizeBytes reports networks plus bitmap samples.
func (e *MSCNJoin) SizeBytes() int {
	s := e.predNet.SizeBytes() + e.bitNet.SizeBytes() + e.outNet.SizeBytes()
	for _, rows := range e.samples {
		if len(rows) > 0 {
			s += 8 * len(rows) * len(rows[0])
		}
	}
	return s
}

// EstimateCard runs one forward pass.
func (e *MSCNJoin) EstimateCard(jq *JoinQuery) (float64, error) {
	res, err := e.EstimateCardBatch([]*JoinQuery{jq})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// EstimateCardBatch estimates several join queries.
func (e *MSCNJoin) EstimateCardBatch(jqs []*JoinQuery) ([]float64, error) {
	poolDim := e.outNet.InDim() / 2
	out := make([]float64, len(jqs))
	for start := 0; start < len(jqs); start += e.batch {
		end := start + e.batch
		if end > len(jqs) {
			end = len(jqs)
		}
		chunk := jqs[start:end]
		b := len(chunk)
		var predRows [][]float64
		counts := make([]int, b)
		for bi, jq := range chunk {
			rows := e.featurize(jq)
			counts[bi] = len(rows)
			predRows = append(predRows, rows...)
		}
		predIn := vecmath.NewMatrix(len(predRows), e.nFeat+4)
		for i, r := range predRows {
			copy(predIn.Row(i), r)
		}
		if predIn.Rows > e.predCap {
			e.predState = e.predNet.NewState(predIn.Rows)
			e.predCap = predIn.Rows
		}
		e.predNet.Forward(e.predState, predIn)
		predOut := e.predNet.Output(e.predState)

		bitIn := vecmath.NewMatrix(b, e.bitsDim)
		for bi, jq := range chunk {
			copy(bitIn.Row(bi), e.bitmap(jq))
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
			out[start+bi] = e.invert(1 / (1 + math.Exp(-res.Row(bi)[0])))
		}
	}
	return out, nil
}

// CardEstimator is the interface all join estimators satisfy.
type CardEstimator interface {
	Name() string
	EstimateCard(jq *JoinQuery) (float64, error)
}
