// Package ar wraps the ResMADE network into an autoregressive density
// estimator with progressive sampling (paper §3): batched sample generation,
// wildcard skipping for unqueried columns, and a pluggable per-column
// constraint abstraction. Plain code-range constraints give Naru/NeuroCard's
// vanilla progressive sampling; weight-vector constraints carry IAM's
// per-component GMM range masses (the §5.2 bias correction); factored
// constraints implement NeuroCard-style column factorization where a
// subcolumn's admissible codes depend on previously sampled subcolumns.
package ar

import (
	"fmt"
	"math"
	"math/rand"

	"iam/internal/dataset"
	"iam/internal/nn"
	"iam/internal/vecmath"
)

// Constraint restricts one AR column during progressive sampling.
type Constraint interface {
	// Fill writes the admission weight of every code of the column into w
	// (len = column cardinality). prev holds the codes sampled for earlier
	// columns of the same tuple (later entries are undefined).
	Fill(prev []int, w []float64)
}

// RangeConstraint admits the inclusive code interval [Lo, Hi].
type RangeConstraint struct {
	Lo, Hi int
}

// Fill implements Constraint.
func (rc RangeConstraint) Fill(_ []int, w []float64) {
	for k := range w {
		if k >= rc.Lo && k <= rc.Hi {
			w[k] = 1
		} else {
			w[k] = 0
		}
	}
}

// WeightConstraint admits codes with arbitrary weights in [0, 1] — IAM uses
// it to multiply the AR conditional by P̂_GMM(R) (paper §5.2).
type WeightConstraint struct {
	W []float64
}

// Fill implements Constraint.
func (wc WeightConstraint) Fill(_ []int, w []float64) {
	copy(w, wc.W)
}

// EmptyConstraint admits nothing; the query is unsatisfiable on this column.
type EmptyConstraint struct{}

// Fill implements Constraint.
func (EmptyConstraint) Fill(_ []int, w []float64) {
	for k := range w {
		w[k] = 0
	}
}

// FactoredConstraint constrains one subcolumn of a factored column to the
// original code range [Lo, Hi]. FirstCol is the AR column index of the most
// significant subcolumn; Part selects which subcolumn this constraint is
// attached to. The admissible subcodes depend on the already-sampled more
// significant subcolumns, exactly as in NeuroCard's sampler.
type FactoredConstraint struct {
	Spec     dataset.FactorSpec
	Part     int
	FirstCol int
	Lo, Hi   int
}

// Fill implements Constraint. It extracts endpoint digits with
// FactorSpec.Digit instead of Split so the per-sample inner loop of the
// progressive sampler stays allocation-free.
func (fc FactoredConstraint) Fill(prev []int, w []float64) {
	// Compare the sampled prefix with the range endpoints' digit prefixes.
	onLo, onHi := true, true
	for p := 0; p < fc.Part; p++ {
		v := prev[fc.FirstCol+p]
		if v != fc.Spec.Digit(fc.Lo, p) {
			onLo = false
		}
		if v != fc.Spec.Digit(fc.Hi, p) {
			onHi = false
		}
	}
	lo, hi := 0, len(w)-1
	if onLo {
		lo = fc.Spec.Digit(fc.Lo, fc.Part)
	}
	if onHi {
		hi = fc.Spec.Digit(fc.Hi, fc.Part)
	}
	for k := range w {
		if k >= lo && k <= hi {
			w[k] = 1
		} else {
			w[k] = 0
		}
	}
}

// Model is an autoregressive density estimator over encoded columns.
type Model struct {
	Net   *nn.ResMADE
	Cards []int
}

// New builds a fresh model for the given column cardinalities.
func New(cards []int, hidden []int, embedDim int, seed int64) (*Model, error) {
	net, err := nn.NewResMADE(nn.Config{Cards: cards, Hidden: hidden, EmbedDim: embedDim, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Model{Net: net, Cards: append([]int(nil), cards...)}, nil
}

// Fit trains the model on encoded rows (wildcard skipping enabled, §5.3).
// Every column's output head is first initialized at the smoothed log
// marginal frequencies, which calibrates rare values' probabilities from
// step zero — crucial for tail selectivities on skewed columns.
func (m *Model) Fit(rows [][]int, cfg nn.TrainConfig) ([]float64, error) {
	if err := m.InitMarginals(rows); err != nil {
		return nil, err
	}
	cfg.Wildcard = true
	return m.Net.Fit(rows, cfg)
}

// InitMarginals sets each column's output bias to log((count+½)/(n+½·card)).
func (m *Model) InitMarginals(rows [][]int) error {
	if len(rows) == 0 {
		return nil
	}
	for c, card := range m.Cards {
		counts := make([]float64, card)
		for _, r := range rows {
			counts[r[c]]++
		}
		n := float64(len(rows))
		bias := make([]float64, card)
		for k := range bias {
			bias[k] = math.Log((counts[k] + 0.5) / (n + 0.5*float64(card)))
		}
		if err := m.Net.SetOutputBias(c, bias); err != nil {
			return err
		}
	}
	return nil
}

// TupleProb returns the model's point probability of one fully specified
// tuple: Π_i P̂(a_i | a_<i).
func (m *Model) TupleProb(sess *nn.Session, row []int) float64 {
	sess.Forward([][]int{row})
	p := 1.0
	buf := make([]float64, maxCard(m.Cards))
	for c, card := range m.Cards {
		dist := buf[:card]
		sess.Dist(0, c, dist)
		p *= dist[row[c]]
	}
	return p
}

func maxCard(cards []int) int {
	mx := 0
	for _, c := range cards {
		if c > mx {
			mx = c
		}
	}
	return mx
}

// Estimate runs unbiased progressive sampling for a single query whose
// per-column constraints are cons (nil = unqueried, wildcard-skipped). sess
// must accommodate numSamples rows.
//
// iam:deterministic
func (m *Model) Estimate(sess *nn.Session, cons []Constraint, numSamples int, rng *rand.Rand) (float64, error) {
	res, err := m.EstimateBatch(sess, [][]Constraint{cons}, numSamples, rng)
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// EstimateBatch estimates a batch of queries at once (paper §5.3, Table 7):
// the per-query sample sets are stacked into one matrix so every AR column
// needs a single network forward for the whole batch. sess must accommodate
// len(consList)·numSamples rows. All queries draw from the one shared rng in
// a fixed order; EstimateBatchScratch is the reusable-buffer variant with
// per-query streams.
//
// iam:deterministic
func (m *Model) EstimateBatch(sess *nn.Session, consList [][]Constraint, numSamples int, rng *rand.Rand) ([]float64, error) {
	nq := len(consList)
	if err := m.checkArity(consList); err != nil {
		return nil, err
	}
	sc := NewEstimateScratch()
	sc.ensure(nq, numSamples, len(m.Cards), maxCard(m.Cards))
	for qi := range sc.rngs {
		sc.rngs[qi] = rng
	}
	res := m.estimateBatchInto(sess, sc, consList, numSamples)
	out := make([]float64, nq)
	copy(out, res)
	return out, nil
}

// checkArity validates that every constraint list covers each AR column
// exactly once. Kept out of estimateBatchInto so the sampling core stays
// allocation-free (the error construction is the only heap traffic).
func (m *Model) checkArity(consList [][]Constraint) error {
	nCols := len(m.Cards)
	for _, cons := range consList {
		if len(cons) != nCols {
			return fmt.Errorf("ar: constraint list has %d entries for %d columns", len(cons), nCols)
		}
	}
	return nil
}

// EstimateBatchScratch is EstimateBatch on caller-owned scratch buffers with
// one deterministic RNG stream per query: query i draws only from a generator
// reseeded to seeds[i], so its estimate is a pure function of (model, query,
// seed) — independent of batch composition, worker count, or execution order.
// The returned slice aliases sc and is valid until the next call on sc.
//
// iam:deterministic
// iam:numsafe
func (m *Model) EstimateBatchScratch(sess *nn.Session, sc *EstimateScratch, consList [][]Constraint, numSamples int, seeds []int64) ([]float64, error) {
	if len(seeds) != len(consList) {
		return nil, fmt.Errorf("ar: %d seeds for %d queries", len(seeds), len(consList))
	}
	if err := m.checkArity(consList); err != nil {
		return nil, err
	}
	sc.ensure(len(consList), numSamples, len(m.Cards), maxCard(m.Cards))
	sc.seed(seeds)
	return m.estimateBatchInto(sess, sc, consList, numSamples), nil
}

// packedSampling routes the sampling core through the packed forwards
// (nn.ForwardSampling over per-prefix SamplingPlans). Package-level so the
// property tests can pin the dense fallback; production never flips it.
var packedSampling = true

// maxPackedCols bounds the packed path to what a [4]uint64 prefix signature
// can address; wider schemas fall back to the dense sampler.
const maxPackedCols = 256

// estimateBatchInto is the progressive-sampling core shared by EstimateBatch
// and EstimateBatchScratch. sc must already be sized by ensure and have
// sc.rngs populated; consList must already be arity-checked (checkArity).
// It performs no heap allocation beyond what Constraint implementations
// allocate (the built-in ones allocate nothing) and the amortized packed-plan
// builds (once per new query prefix per parameter generation).
//
// Per column the work goes to the packed sampler — one restricted forward
// per group of queries sharing a constrained-prefix signature — or to the
// dense fallback for schemas too wide for a signature. Each query's draws
// happen in the same (column, sample) order with its own rng stream either
// way, so estimates stay pure functions of (model, query, seed).
//
// iam:numsafe
// iam:noalloc
func (m *Model) estimateBatchInto(sess *nn.Session, sc *EstimateScratch, consList [][]Constraint, numSamples int) []float64 {
	nCols := len(m.Cards)
	nq := len(consList)

	rows := sc.rows
	for i := range rows {
		for c := range rows[i] {
			rows[i][c] = m.Net.MaskToken(c)
		}
	}
	probs := sc.probs
	for i := range probs {
		probs[i] = 1
	}

	packed := packedSampling && nCols <= maxPackedCols
	if packed {
		for qi := range sc.sigs[:nq] {
			sc.sigs[qi] = [4]uint64{}
		}
	}

	for c := 0; c < nCols; c++ {
		if packed {
			m.sampleColumnPacked(sess, sc, consList, numSamples, c)
			// The prefix signature of column c+1 gains every query's bit for
			// c — constrained columns are live once sampled, dead or not.
			for qi, cons := range consList {
				if cons[c] != nil {
					sc.sigs[qi][c>>6] |= 1 << uint(c&63)
				}
			}
		} else {
			m.sampleColumnDense(sess, sc, consList, numSamples, c)
		}
	}

	out := sc.out[:nq]
	varOut := sc.varOut[:nq]
	for qi := 0; qi < nq; qi++ {
		var s float64
		for i := qi * numSamples; i < (qi+1)*numSamples; i++ {
			s += probs[i]
		}
		mean := s / float64(numSamples)
		out[qi] = vecmath.Clamp(mean, 0, 1)
		// Sample variance of the mean estimator, Var(paths)/S — the standard
		// error progressive sampling carries for free. Read-only second pass
		// over the path probabilities, so the estimate above is bit-identical
		// whether or not a caller ever looks at Variances().
		varOut[qi] = 0
		if numSamples > 1 {
			var ss float64
			for i := qi * numSamples; i < (qi+1)*numSamples; i++ {
				d := probs[i] - mean
				ss += d * d
			}
			//lint:ignore numflow the enclosing numSamples > 1 check keeps both denominators ≥ 1
			varOut[qi] = ss / float64(numSamples-1) / float64(numSamples)
		}
	}
	return out
}

// sampleColumnDense advances column c for every query constraining it with
// one dense forward over the stacked live sample rows (wildcard-skipping,
// §5.3, with dead-sample compaction). This is the pre-packing sampler, kept
// as the fallback for schemas wider than maxPackedCols.
//
// iam:numsafe
// iam:noalloc
func (m *Model) sampleColumnDense(sess *nn.Session, sc *EstimateScratch, consList [][]Constraint, numSamples, c int) {
	probs := sc.probs
	rows := sc.rows
	// Sub-batch: only the sample rows of queries that constrain this
	// column need a network forward, and of those only the live rows — a
	// sample whose path probability has collapsed to zero contributes
	// nothing downstream, so forwarding it would be pure waste. subPos
	// records each live row's position in the compacted sub-batch.
	subRows := sc.subRows[:0]
	subQs := sc.subQs[:0]
	for qi, cons := range consList {
		if cons[c] == nil {
			continue
		}
		//lint:ignore noalloc sc.subQs is pre-sized to nq by ensure; append reuses retained capacity
		subQs = append(subQs, qi)
		for s := 0; s < numSamples; s++ {
			ri := qi*numSamples + s
			if probs[ri] == 0 {
				sc.subPos[ri] = -1
				continue
			}
			sc.subPos[ri] = len(subRows)
			//lint:ignore noalloc sc.subRows is pre-sized to nq·numSamples by ensure; append reuses retained capacity
			subRows = append(subRows, rows[ri])
		}
	}
	sc.subRows, sc.subQs = subRows, subQs // retain any growth
	if len(subRows) == 0 {
		return
	}
	sess.Forward(subRows)
	for _, qi := range subQs {
		m.sampleQueryColumn(sess, sc, consList[qi][c], qi, c, numSamples)
	}
}

// sampleColumnPacked advances column c in groups of queries sharing a
// constrained-prefix signature (the columns already sampled live). Each
// group gets one packed restricted forward over its compacted sample rows;
// a group whose prefix is empty degenerates to a single broadcast row —
// every sample feeds identical MASK inputs, so one forwarded row answers
// for all of them (this collapses the first constrained column of every
// query to one row of FLOPs). Forwards are row-pure and each query keeps
// its own rng stream, so grouping never perturbs any query's draws.
//
// iam:numsafe
// iam:noalloc
func (m *Model) sampleColumnPacked(sess *nn.Session, sc *EstimateScratch, consList [][]Constraint, numSamples, c int) {
	probs := sc.probs
	rows := sc.rows
	subQs := sc.subQs[:0]
	for qi, cons := range consList {
		sc.claimed[qi] = false
		if cons[c] != nil {
			//lint:ignore noalloc sc.subQs is pre-sized to nq by ensure; append reuses retained capacity
			subQs = append(subQs, qi)
		}
	}
	sc.subQs = subQs
	for gi, qi0 := range subQs {
		if sc.claimed[qi0] {
			continue
		}
		sig := sc.sigs[qi0]
		plan := sc.planFor(m.Net, sig, len(m.Cards))
		broadcast := plan.PackedDim() == 0
		subRows := sc.subRows[:0]
		groupQs := sc.groupQs[:0]
		for _, qi := range subQs[gi:] {
			if sc.claimed[qi] || sc.sigs[qi] != sig {
				continue
			}
			sc.claimed[qi] = true
			//lint:ignore noalloc sc.groupQs is pre-sized to nq by ensure; append reuses retained capacity
			groupQs = append(groupQs, qi)
			for s := 0; s < numSamples; s++ {
				ri := qi*numSamples + s
				if probs[ri] == 0 {
					sc.subPos[ri] = -1
					continue
				}
				if broadcast {
					// All live inputs are MASK constants: row 0 stands in
					// for every sample of the group.
					sc.subPos[ri] = 0
					if len(subRows) == 0 {
						//lint:ignore noalloc sc.subRows is pre-sized by ensure; append reuses retained capacity
						subRows = append(subRows, rows[ri])
					}
					continue
				}
				sc.subPos[ri] = len(subRows)
				//lint:ignore noalloc sc.subRows is pre-sized to nq·numSamples by ensure; append reuses retained capacity
				subRows = append(subRows, rows[ri])
			}
		}
		sc.subRows, sc.groupQs = subRows, groupQs // retain any growth
		if len(subRows) == 0 {
			continue
		}
		sess.ForwardSampling(subRows, plan, c)
		for _, qi := range groupQs {
			m.sampleQueryColumn(sess, sc, consList[qi][c], qi, c, numSamples)
		}
	}
}

// sampleQueryColumn runs one query's per-sample draw loop for column c
// against the logits of the last forward (dense or packed — sc.subPos maps
// each live sample to its forwarded row either way).
//
// iam:numsafe
// iam:noalloc
func (m *Model) sampleQueryColumn(sess *nn.Session, sc *EstimateScratch, con Constraint, qi, c, numSamples int) {
	card := m.Cards[c]
	probs := sc.probs
	rows := sc.rows
	rng := sc.rngs[qi]
	for s := 0; s < numSamples; s++ {
		ri := qi*numSamples + s
		if probs[ri] == 0 {
			continue
		}
		d := sc.dist[:card]
		//lint:ignore noalloc Dist's column-mismatch panic is a cold fmt.Sprintf; its steady path is alloc-free
		sess.Dist(sc.subPos[ri], c, d)
		wv := sc.w[:card]
		con.Fill(rows[ri], wv)
		// Fold the admission weights in and build the prefix sums
		// in one pass; the running total accumulates in code order,
		// as a separate weighting pass then a prefix-sum pass would,
		// so masses are bit-equal to the two-pass form.
		cdf := sc.cdf[:card]
		var mass float64
		for k := 0; k < card; k++ {
			d[k] *= wv[k]
			mass += d[k]
			cdf[k] = mass
		}
		probs[ri] *= mass
		if mass <= 0 || probs[ri] == 0 {
			probs[ri] = 0
			rows[ri][c] = 0 // keep the input valid for later forwards
			continue
		}
		// Sample the next coordinate ∝ corrected conditional.
		rows[ri][c] = pickCategorical(d, cdf, rng.Float64()*mass)
	}
}

// bsearchMinCard is the domain size above which the categorical draw switches
// from a linear cumulative scan to binary search over the prefix sums.
const bsearchMinCard = 64

// pickCategorical returns the index k drawn by threshold u over the weighted
// distribution d with prefix sums cdf (cdf[k] = d[0]+…+d[k] accumulated left
// to right): the first k with u < cdf[k], or len(d)-1 when rounding pushes u
// to or past the total mass. Small domains scan linearly; larger ones binary
// search the prefix sums. Both paths pick identical indices because the scan
// compares u against the same accumulation chain cdf stores.
//
// iam:noalloc
func pickCategorical(d, cdf []float64, u float64) int {
	card := len(d)
	if card <= bsearchMinCard {
		var acc float64
		pick := card - 1
		for k := 0; k < card; k++ {
			acc += d[k]
			if u < acc {
				pick = k
				break
			}
		}
		return pick
	}
	// Branch-light upper bound: count prefix sums ≤ u, clamped to card-1.
	lo, n := 0, card
	for n > 1 {
		half := n / 2
		if cdf[lo+half-1] <= u {
			lo += half
		}
		n -= half
	}
	return lo
}

// SampleRecord captures one progressive-sampling run for gradient-based
// query-driven training (UAE): the final sampled rows, the per-column range
// masses each row accumulated, and the per-row path probabilities.
type SampleRecord struct {
	NumSamples int
	Rows       [][]int     // len nq·numSamples; final sampled codes
	Mass       [][]float64 // Mass[i][c] = admitted mass at column c (NaN = column skipped)
	Probs      []float64   // Π over queried columns of Mass[i][c]
	Est        []float64   // per-query estimates (mean of Probs)
}

// EstimateBatchRecord is EstimateBatch with full recording. The returned
// rows can be re-forwarded to reconstruct every step's logits exactly (MADE
// masks guarantee column c's logits depend only on columns < c, which hold
// the same sampled values they had during the run).
func (m *Model) EstimateBatchRecord(sess *nn.Session, consList [][]Constraint, numSamples int, rng *rand.Rand) *SampleRecord {
	nCols := len(m.Cards)
	nq := len(consList)
	total := nq * numSamples

	rec := &SampleRecord{NumSamples: numSamples}
	rec.Rows = make([][]int, total)
	rec.Mass = make([][]float64, total)
	rec.Probs = make([]float64, total)
	rowBacking := make([]int, total*nCols)
	massBacking := make([]float64, total*nCols)
	for i := range rec.Rows {
		rec.Rows[i] = rowBacking[i*nCols : (i+1)*nCols]
		rec.Mass[i] = massBacking[i*nCols : (i+1)*nCols]
		for c := range rec.Rows[i] {
			rec.Rows[i][c] = m.Net.MaskToken(c)
			rec.Mass[i][c] = math.NaN()
		}
		rec.Probs[i] = 1
	}

	queried := make([]bool, nCols)
	for _, cons := range consList {
		for c, con := range cons {
			if con != nil {
				queried[c] = true
			}
		}
	}

	dist := make([]float64, maxCard(m.Cards))
	w := make([]float64, maxCard(m.Cards))
	for c := 0; c < nCols; c++ {
		if !queried[c] {
			continue
		}
		sess.Forward(rec.Rows)
		card := m.Cards[c]
		for qi, cons := range consList {
			con := cons[c]
			for s := 0; s < numSamples; s++ {
				ri := qi*numSamples + s
				if con == nil || rec.Probs[ri] == 0 {
					continue
				}
				d := dist[:card]
				sess.Dist(ri, c, d)
				wv := w[:card]
				con.Fill(rec.Rows[ri], wv)
				var mass float64
				for k := 0; k < card; k++ {
					d[k] *= wv[k]
					mass += d[k]
				}
				rec.Mass[ri][c] = mass
				rec.Probs[ri] *= mass
				if mass <= 0 || rec.Probs[ri] == 0 {
					rec.Probs[ri] = 0
					rec.Rows[ri][c] = 0
					continue
				}
				u := rng.Float64() * mass
				var acc float64
				pick := card - 1
				for k := 0; k < card; k++ {
					acc += d[k]
					if u < acc {
						pick = k
						break
					}
				}
				rec.Rows[ri][c] = pick
			}
		}
	}

	rec.Est = make([]float64, nq)
	for qi := 0; qi < nq; qi++ {
		var s float64
		for i := qi * numSamples; i < (qi+1)*numSamples; i++ {
			s += rec.Probs[i]
		}
		rec.Est[qi] = vecmath.Clamp(s/float64(numSamples), 0, 1)
	}
	return rec
}
