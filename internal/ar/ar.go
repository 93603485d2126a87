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
	"errors"
	"fmt"
	"math"
	"slices"

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
			bias[k] = math.Log((counts[k] + 0.5) / (n + float64(0.5*float64(card))))
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

// EstimateBatchScratch runs unbiased progressive sampling (paper §3, §5.3)
// for a batch of queries whose per-column constraints are consList (nil =
// unqueried, wildcard-skipped), on caller-owned scratch buffers. Query i
// draws only from a generator reseeded to seeds[i], so its estimate is a pure
// function of (model, query, seed) — independent of batch composition,
// worker count, or execution order. sess must accommodate
// len(consList)·numSamples rows. The returned slice aliases sc and is valid
// until the next call on sc; so are Variances and Paths. A NaN estimate is
// ErrNaNEstimate.
func (m *Model) EstimateBatchScratch(sess *nn.Session, sc *EstimateScratch, consList [][]Constraint, numSamples int, seeds []int64) ([]float64, error) {
	if len(seeds) != len(consList) {
		return nil, fmt.Errorf("ar: %d seeds for %d queries", len(seeds), len(consList))
	}
	if err := m.checkArity(consList); err != nil {
		return nil, err
	}
	sc.ensure(len(consList), numSamples, len(m.Cards), maxCard(m.Cards))
	sc.seed(seeds)
	ests := m.estimateBatchInto(sess, sc, consList, numSamples)
	for _, e := range ests {
		if math.IsNaN(e) {
			return nil, ErrNaNEstimate
		}
	}
	return ests, nil
}

// ErrNaNEstimate reports a NaN estimate: the network's conditionals were not
// finite, as happens with a damaged or overflowing parameter file.
var ErrNaNEstimate = errors.New("ar: the network produced a NaN probability")

// estimateBatchInto is the progressive-sampling core behind
// EstimateBatchScratch. sc must already be sized by ensure and seeded;
// consList must already be arity-checked (checkArity). It performs no heap
// allocation beyond what Constraint implementations allocate (the built-in
// ones allocate nothing).
//
// Each column's work goes to sampleColumn — one restricted forward over the
// distinct live rows of every query constraining the column. Each query
// draws in (column, sample) order from its own rng stream, so estimates stay
// pure functions of (model, query, seed).
//
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

	for c := 0; c < nCols; c++ {
		m.sampleColumn(sess, sc, consList, numSamples, c)
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
		// whether or not a caller ever looks at Variances(). Paths that all
		// share one probability have variance exactly 0; p − mean would
		// carry mean's rounding into ss.
		varOut[qi] = 0
		if numSamples > 1 {
			var ss float64
			p0, spread := probs[qi*numSamples], false
			for i := qi * numSamples; i < (qi+1)*numSamples; i++ {
				d := probs[i] - mean
				ss += float64(d * d)
				if probs[i] != p0 {
					spread = true
				}
			}
			if spread {
				// The enclosing numSamples > 1 check keeps both denominators ≥ 1.
				varOut[qi] = ss / float64(numSamples-1) / float64(numSamples)
			}
		}
	}
	return out
}

// sampleColumn advances column c for every query that constrains it, with
// one restricted forward over their distinct live rows (see columnRows):
// samples whose codes agree on every column < c share one forwarded row,
// within a query and across queries, so a column whose queries all skipped
// every earlier column forwards a single row. Forwards are row-pure and
// each query keeps its own rng stream, so sharing rows perturbs no query's
// draws.
//
// iam:noalloc
func (m *Model) sampleColumn(sess *nn.Session, sc *EstimateScratch, consList [][]Constraint, numSamples, c int) {
	subQs := sc.subQs[:0]
	for qi, cons := range consList {
		if cons[c] != nil {
			subQs = append(subQs, qi)
		}
	}
	sc.subQs = subQs
	subRows := sc.columnRows(c, numSamples)
	if len(subRows) == 0 {
		return
	}
	sess.ForwardSampling(subRows, c)
	for _, qi := range subQs {
		m.sampleQueryColumn(sess, sc, consList[qi][c], qi, c, numSamples)
	}
}

// prefixDedup lets live samples share forwarded rows. Package-level so the
// tests can pin dedup on against off bit for bit; production never flips it.
var prefixDedup = true

// columnRows builds the forwarded sub-batch of column c over the queries in
// sc.subQs and points sc.subPos into it: -1 for a dead sample, else the row
// forwarded for the first live sample with the same codes on columns < c.
// Those codes are all the sampling forward reads — a column a query skips
// holds its MASK token there — so one forward answers for every sample
// mapped to the row. Dead samples are never forwarded.
//
// iam:noalloc
func (sc *EstimateScratch) columnRows(c, numSamples int) [][]int {
	table := sc.dedup[:dedupSize(len(sc.subQs)*numSamples)]
	clear(table)
	mask := uint64(len(table) - 1)
	subRows := sc.subRows[:0]
	for _, qi := range sc.subQs {
		for s := 0; s < numSamples; s++ {
			ri := qi*numSamples + s
			if sc.probs[ri] == 0 {
				sc.subPos[ri] = -1
				continue
			}
			row := sc.rows[ri]
			pos := len(subRows)
			if prefixDedup {
				// Linear probing; a slot holds a forwarded row index + 1.
				for h := prefixHash(row[:c]) & mask; ; h = (h + 1) & mask {
					j := int(table[h]) - 1
					if j < 0 {
						table[h] = int32(pos + 1)
						break
					}
					if slices.Equal(subRows[j][:c], row[:c]) {
						pos = j
						break
					}
				}
			}
			sc.subPos[ri] = pos
			if pos == len(subRows) {
				subRows = append(subRows, row)
			}
		}
	}
	sc.subRows = subRows
	return subRows
}

// prefixHash mixes the codes of prefix into a dedup-table hash.
//
// iam:noalloc
func prefixHash(prefix []int) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, code := range prefix {
		h = (h ^ uint64(code)) * 0xBF58476D1CE4E5B9
	}
	return h ^ h>>31
}

// sampleQueryColumn runs one query's per-sample draw loop for column c
// against the logits of the last sampling forward (sc.subPos maps each live
// sample to its forwarded row). The weighted
// conditional's prefix sums and mass depend only on the forwarded row
// (Dist) and the sampled prefix (Fill reads codes < c only), both shared by
// every sample mapped to that row, so they are built once per distinct row
// and memoised; each sample then costs one uniform and one pick, still drawn
// in sample order from the query's stream.
//
// iam:noalloc
func (m *Model) sampleQueryColumn(sess *nn.Session, sc *EstimateScratch, con Constraint, qi, c, numSamples int) {
	card := m.Cards[c]
	probs := sc.probs
	rows := sc.rows
	rng := sc.rngs[qi]
	epoch := sc.nextEpoch()
	slots := 0
	for s := 0; s < numSamples; s++ {
		ri := qi*numSamples + s
		if probs[ri] == 0 {
			continue
		}
		pos := sc.subPos[ri]
		if sc.memoStamp[pos] != epoch {
			sc.memoStamp[pos] = epoch
			sc.memoSlot[pos] = int32(slots)
			d := sc.dist[:card]
			sess.Dist(pos, c, d)
			wv := sc.w[:card]
			con.Fill(rows[ri], wv)
			// Fold the admission weights in and build the prefix sums
			// in one pass; the running total accumulates in code order,
			// as a separate weighting pass then a prefix-sum pass would,
			// so masses are bit-equal to the two-pass form.
			cdf := sc.memoCDF[slots*card : (slots+1)*card]
			var mass float64
			for k := 0; k < card; k++ {
				d[k] = float64(d[k] * wv[k])
				mass += d[k]
				cdf[k] = mass
			}
			sc.memoMass[slots] = mass
			slots++
		}
		slot := int(sc.memoSlot[pos])
		mass := sc.memoMass[slot]
		probs[ri] *= mass
		if mass <= 0 || probs[ri] == 0 {
			probs[ri] = 0
			rows[ri][c] = 0 // keep the input valid for later forwards
			continue
		}
		// Sample the next coordinate ∝ corrected conditional.
		rows[ri][c] = pickCategorical(sc.memoCDF[slot*card:(slot+1)*card], rng.Float64()*mass)
	}
}

// bsearchMinCard is the domain size above which the categorical draw switches
// from a linear scan to binary search over the prefix sums.
const bsearchMinCard = 64

// pickCategorical returns the index k drawn by threshold u from the prefix
// sums cdf of a weighted distribution (cdf[k] = d[0]+…+d[k] accumulated
// left to right): the first k with u < cdf[k], or len(cdf)-1 when rounding
// pushes u to or past the total mass. Small domains scan linearly; larger
// ones binary search. Both pick the index a running sum of d would: cdf[k]
// is that running sum, added in the same order.
//
// iam:noalloc
func pickCategorical(cdf []float64, u float64) int {
	card := len(cdf)
	if card <= bsearchMinCard {
		for k := 0; k < card-1; k++ {
			if u < cdf[k] {
				return k
			}
		}
		return card - 1
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
