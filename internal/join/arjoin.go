package join

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"iam/internal/ar"
	"iam/internal/dataset"
	"iam/internal/gmm"
	"iam/internal/nn"
	"iam/internal/vecmath"
)

// ARMode selects how continuous columns of the flattened join are handled.
type ARMode int

const (
	// ModeIAM reduces large continuous domains with per-column GMMs and
	// corrects range masses during sampling (the paper's estimator).
	ModeIAM ARMode = iota
	// ModeNeurocard keeps full ordinal domains, factoring large ones —
	// the NeuroCard baseline the paper compares against.
	ModeNeurocard
)

// ARJoinConfig controls a join estimator built on the AR model.
type ARJoinConfig struct {
	Mode         ARMode
	SampleRows   int // full-outer-join training samples (default 20000)
	GMMThreshold int // default 1000
	Components   int // default 30
	MaxSubColumn int // default 256
	Hidden       []int
	EmbedDim     int
	Epochs       int
	BatchSize    int
	LR           float64
	NumSamples   int // progressive-sampling width (default 800)
	GMMSamples   int // Monte-Carlo samples per component (default 10000)
	Seed         int64
	// Ctx optionally carries a cancellation context into training (mirrors
	// nn.TrainConfig.Ctx); nil means context.Background().
	Ctx context.Context
}

func (c *ARJoinConfig) fillDefaults() {
	if c.SampleRows <= 0 {
		c.SampleRows = 20000
	}
	if c.GMMThreshold <= 0 {
		c.GMMThreshold = 1000
	}
	if c.Components <= 0 {
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
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.LR <= 0 {
		c.LR = 2e-3
	}
	if c.NumSamples <= 0 {
		c.NumSamples = 800
	}
	if c.GMMSamples <= 0 {
		c.GMMSamples = 10000
	}
}

// arJoinCol maps one flattened column onto AR columns.
type arJoinCol struct {
	// Column is the AR span and interval codec. The clamp of a coded column
	// keeps its NULL code out of every range; a GMM column's weights leave
	// the NULL code at 0.
	ar.Column

	gm *gmm.Model // GMM-reduced columns (ModeIAM) only
	// nullCode is the GMM column's code for NULL (-1 when it cannot be NULL).
	nullCode int
}

// ARJoin is a join-cardinality estimator backed by an autoregressive model
// over full-outer-join samples with indicator and fanout columns.
type ARJoin struct {
	schema *Schema
	flat   *Flattened
	cfg    ARJoinConfig
	cols   []arJoinCol
	arm    *ar.Model
	name   string

	// mu guards the shared inference state: Estimate may be called from
	// multiple goroutines.
	mu      sync.Mutex
	sess    *nn.Session         // guarded by mu
	sessCap int                 // guarded by mu
	sc      *ar.EstimateScratch // guarded by mu
	rng     *rand.Rand          // guarded by mu
}

// TrainIAMJoin builds the paper's join estimator.
func TrainIAMJoin(s *Schema, cfg ARJoinConfig) (*ARJoin, error) {
	cfg.Mode = ModeIAM
	return trainARJoin(s, cfg, "IAM")
}

// TrainNeurocardJoin builds the NeuroCard join baseline.
func TrainNeurocardJoin(s *Schema, cfg ARJoinConfig) (*ARJoin, error) {
	cfg.Mode = ModeNeurocard
	return trainARJoin(s, cfg, "Neurocard")
}

// TrainUAEJoin builds a NeuroCard-style join model fine-tuned on a query
// workload (UAE).
func TrainUAEJoin(s *Schema, w *JoinWorkload, cfg ARJoinConfig, queryEpochs int, queryLR float64) (*ARJoin, error) {
	cfg.Mode = ModeNeurocard
	e, err := trainARJoin(s, cfg, "UAE")
	if err != nil {
		return nil, err
	}
	if err := e.QueryTrain(cfg.Ctx, w, queryEpochs, 8, queryLR, 128); err != nil {
		return nil, err
	}
	return e, nil
}

// TrainUAEQJoin builds a query-only join model (UAE-Q).
func TrainUAEQJoin(s *Schema, w *JoinWorkload, cfg ARJoinConfig, queryEpochs int, queryLR float64) (*ARJoin, error) {
	cfg.Mode = ModeNeurocard
	cfg.Epochs = -1 // no data training
	e, err := trainARJoin(s, cfg, "UAE-Q")
	if err != nil {
		return nil, err
	}
	if err := e.QueryTrain(cfg.Ctx, w, queryEpochs, 8, queryLR, 128); err != nil {
		return nil, err
	}
	return e, nil
}

func trainARJoin(s *Schema, cfg ARJoinConfig, name string) (*ARJoin, error) {
	cfg.fillDefaults()
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	flat, err := s.Flatten(cfg.SampleRows, cfg.Seed+11)
	if err != nil {
		return nil, err
	}
	e := &ARJoin{schema: s, flat: flat, cfg: cfg, name: name}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var cards []int
	for fi, c := range flat.Table.Columns {
		fc := flat.Cols[fi]
		col := arJoinCol{nullCode: -1}
		sentinel, hasSentinel := flat.NullSentinel[fi]
		switch {
		case c.Kind == dataset.Continuous && cfg.Mode == ModeIAM && c.DistinctCount() > cfg.GMMThreshold:
			// GMM-reduce; NULL (sentinel) gets its own code K.
			vals := c.Floats
			if hasSentinel {
				real := vals[:0:0]
				for _, v := range vals {
					if v != sentinel {
						real = append(real, v)
					}
				}
				vals = real
			}
			gm, _, err := gmm.FitSGD(ctx, vals, cfg.Components, 4, 512, 0.02, rng)
			if err != nil {
				return nil, fmt.Errorf("join: column %s: %w", c.Name, err)
			}
			sampler := gmm.NewRangeSampler(cfg.GMMSamples, rng)
			k := gm.K()
			card := k
			if hasSentinel {
				col.nullCode = k
				card = k + 1
			}
			col.gm = gm
			col.Column = ar.Column{First: len(cards), Count: 1, Card: card, Weights: func(lo, hi float64, out []float64) {
				sampler.Mass(gm, lo, hi, out[:k])
				clear(out[k:]) // the NULL code gets weight 0
			}}
			cards = append(cards, card)
		default:
			col.Column, err = ar.NewCodedColumn(len(cards), dataset.BuildEncoder(c), cfg.MaxSubColumn)
			if err != nil {
				return nil, fmt.Errorf("join: column %s: %w", c.Name, err)
			}
			if hasSentinel {
				// The sentinel sorts below every real value → code 0.
				col.MinCode = 1
			}
			if c.Kind == dataset.Categorical && fc.Kind == FlatData && fc.Child >= 0 {
				// NULL-extended categorical: NULL code is the last one.
				col.MaxCode = c.Card - 2
			}
			cards = col.AppendCards(cards)
		}
		e.cols = append(e.cols, col)
	}

	arm, err := ar.New(cards, cfg.Hidden, cfg.EmbedDim, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	e.arm = arm

	if cfg.Epochs > 0 {
		n := flat.Table.NumRows()
		rows := make([][]int, n)
		backing := make([]int, n*len(cards))
		for i := range rows {
			rows[i] = backing[i*len(cards) : (i+1)*len(cards)]
			if err := e.encodeRow(i, rows[i]); err != nil {
				return nil, err
			}
		}
		if _, err := arm.Fit(rows, nn.TrainConfig{
			LR: cfg.LR, BatchSize: cfg.BatchSize, Epochs: cfg.Epochs, Seed: cfg.Seed + 2,
			Ctx: ctx,
		}); err != nil {
			return nil, err
		}
	}

	e.sessCap = cfg.NumSamples
	e.sess = arm.Net.NewSession(e.sessCap)
	e.sc = ar.NewEstimateScratch()
	e.rng = rand.New(rand.NewSource(cfg.Seed + 3))
	return e, nil
}

// encodeRow writes the AR codes of flattened row ri.
func (e *ARJoin) encodeRow(ri int, dst []int) error {
	for fi, col := range e.cols {
		c := e.flat.Table.Columns[fi]
		if col.gm != nil {
			v := c.Floats[ri]
			if s, ok := e.flat.NullSentinel[fi]; ok && v == s {
				dst[col.First] = col.nullCode
			} else {
				dst[col.First] = col.gm.Assign(v)
			}
			continue
		}
		code := 0
		if c.Kind == dataset.Categorical {
			code = c.Ints[ri]
		} else {
			var err error
			code, err = col.Enc.EncodeFloat(c.Floats[ri])
			if err != nil {
				return fmt.Errorf("join: encoding row %d: %w", ri, err)
			}
		}
		if col.Count > 1 {
			col.Factor.SplitInto(dst[col.First:col.First+col.Count], code)
		} else {
			dst[col.First] = code
		}
	}
	return nil
}

// Name implements the estimator naming convention.
func (e *ARJoin) Name() string { return e.name }

// SizeBytes reports the AR network plus GMM parameters.
func (e *ARJoin) SizeBytes() int {
	s := e.arm.Net.SizeBytes()
	for _, col := range e.cols {
		if col.gm != nil {
			s += col.gm.SizeBytes()
		}
	}
	return s
}

// JoinSize exposes |J| of the underlying schema.
func (e *ARJoin) JoinSize() float64 { return e.flat.JoinSize }

// buildConstraints converts a join query to per-AR-column constraints:
// predicates become range/mass constraints, participating children get
// indicator=present, and non-participating children get 1/fanout weighting
// (NeuroCard's downscaling, shared by IAM).
func (e *ARJoin) buildConstraints(jq *JoinQuery) ([]ar.Constraint, error) {
	cons := make([]ar.Constraint, len(e.arm.Cards))
	// A fresh arena per query: QueryTrain holds the constraints of a whole
	// step at once.
	var a ar.Arena
	// Root predicates.
	if jq.Root != nil {
		if jq.Root.Table != e.schema.Root {
			return nil, fmt.Errorf("join: root query bound to table %q", jq.Root.Table.Name)
		}
		for j, r := range jq.Root.Ranges {
			if r == nil {
				continue
			}
			fi := e.flat.FlatIndex(e.schema.Root.Name, j)
			if err := e.cols[fi].Constrain(*r, cons, &a); err != nil {
				return nil, err
			}
		}
	}
	for ci := range e.schema.Children {
		child := &e.schema.Children[ci]
		q, inJoin := jq.Children[child.Table.Name]
		if inJoin {
			indFi := e.flat.IndicatorIndex(ci)
			ind := &e.cols[indFi]
			cons[ind.First] = ar.RangeConstraint{Lo: 1, Hi: 1}
			if q != nil {
				if q.Table != child.Table {
					return nil, fmt.Errorf("join: child query for %q bound to wrong table", child.Table.Name)
				}
				for j, r := range q.Ranges {
					if r == nil {
						continue
					}
					fi := e.flat.FlatIndex(child.Table.Name, j)
					if err := e.cols[fi].Constrain(*r, cons, &a); err != nil {
						return nil, err
					}
				}
			}
			continue
		}
		// Not in the join: weight by 1/fanout.
		fanFi := e.flat.FanoutIndex(ci)
		fan := &e.cols[fanFi]
		vals := e.flat.FanoutValues[ci]
		w := make([]float64, len(vals))
		for k, v := range vals {
			w[k] = 1 / v
		}
		cons[fan.First] = ar.WeightConstraint{W: w}
	}
	return cons, nil
}

// EstimateCard estimates the cardinality of a join query.
func (e *ARJoin) EstimateCard(jq *JoinQuery) (float64, error) {
	res, err := e.EstimateCardBatch([]*JoinQuery{jq})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// EstimateCardBatch estimates several join queries in one stacked sampling
// run (Table 7's batched inference). Each query samples from its own seed,
// drawn in order from the estimator's rng.
func (e *ARJoin) EstimateCardBatch(jqs []*JoinQuery) ([]float64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	consList := make([][]ar.Constraint, len(jqs))
	seeds := make([]int64, len(jqs))
	for i, jq := range jqs {
		cons, err := e.buildConstraints(jq)
		if err != nil {
			return nil, err
		}
		consList[i] = cons
		seeds[i] = e.rng.Int63()
	}
	need := len(jqs) * e.cfg.NumSamples
	if need > e.sessCap {
		e.sessCap = need
		e.sess = e.arm.Net.NewSession(need)
	}
	probs, err := e.arm.EstimateBatchScratch(e.sess, e.sc, consList, e.cfg.NumSamples, seeds)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(probs))
	for i, p := range probs {
		out[i] = p * e.flat.JoinSize
	}
	return out, nil
}

// QueryTrain fine-tunes the model on a labelled join workload (UAE).
// Cancelling ctx stops the loop between epochs and returns the context's
// error.
func (e *ARJoin) QueryTrain(ctx context.Context, w *JoinWorkload, epochs, batchSize int, lr float64, trainSamples int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(w.Queries) == 0 || len(w.Queries) != len(w.Cards) {
		return fmt.Errorf("join: needs a labelled join workload")
	}
	if epochs <= 0 {
		epochs = 4
	}
	if batchSize <= 0 {
		batchSize = 8
	}
	if lr <= 0 {
		lr = 5e-4
	}
	if trainSamples <= 0 {
		trainSamples = 128
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed + 101))
	sess := e.arm.Net.NewSession(batchSize * trainSamples)
	outDim := 0
	for _, c := range e.arm.Cards {
		outDim += c
	}
	dLogits := vecmath.NewMatrix(batchSize*trainSamples, outDim)

	n := len(w.Queries)
	idx := rng.Perm(n)
	for ep := 0; ep < epochs; ep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for start := 0; start < n; start += batchSize {
			end := start + batchSize
			if end > n {
				end = n
			}
			batch := idx[start:end]
			consList := make([][]ar.Constraint, len(batch))
			targets := make([]float64, len(batch))
			for i, qi := range batch {
				cons, err := e.buildConstraints(w.Queries[qi])
				if err != nil {
					return err
				}
				consList[i] = cons
				targets[i] = w.Cards[qi] / e.flat.JoinSize
			}
			if _, err := e.arm.TrainQueryStep(sess, consList, targets, trainSamples, lr, rng, dLogits); err != nil {
				return err
			}
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return nil
}
