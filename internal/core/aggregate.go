package core

import (
	"fmt"
	"math"

	"iam/internal/ar"
	"iam/internal/dataset"
	"iam/internal/nn"
	"iam/internal/query"
	"iam/internal/vecmath"
)

// The paper's §8 names approximate AVG/SUM processing as future work; this
// file implements it on top of the trained IAM model. Progressive sampling
// already draws tuples proportionally to the (corrected) model distribution
// restricted to the query region; averaging a per-sample value estimate
// weighted by the path probabilities yields E[col | query]:
//
//	AVG ≈ Σ_s p_s·v_s / Σ_s p_s,   SUM ≈ AVG · sel(q) · |T|,
//
// where v_s is the target's conditional mean over its admitted codes for GMM
// and passthrough columns, the value of the sampled code for factored
// columns, or the midpoint of the sampled code's range for
// alternative-reducer columns.

// EstimateAvg estimates AVG(col) over the rows matching q. The estimate is
// Rao-Blackwellized: the conditioning columns are progressively sampled,
// but the target column's value is integrated over its full (bias-corrected)
// conditional distribution rather than sampled, removing one layer of Monte
// Carlo variance. It samples with the stream Estimate(q) uses, so the answer
// is a pure function of (model, query).
func (m *Model) EstimateAvg(q *query.Query, col string) (float64, error) {
	avg, _, err := m.estimateAvg(q, col)
	return avg, err
}

// EstimateSum estimates SUM(col) over the rows matching q: the average times
// the selectivity drawn from the same sample paths, times the table size.
func (m *Model) EstimateSum(q *query.Query, col string) (float64, error) {
	avg, sel, err := m.estimateAvg(q, col)
	if err != nil {
		return 0, err
	}
	return avg * sel * float64(m.table.NumRows()), nil
}

// estimateAvg returns AVG(col | q) together with the selectivity estimated
// from the same progressive-sampling paths: Σ_s p_s·v_s / Σ_s p_s over the
// paths s with probability p_s and value estimate v_s. It runs on a pooled
// worker under the read lock.
func (m *Model) estimateAvg(q *query.Query, col string) (avg, sel float64, err error) {
	m.rlockFresh()
	defer m.mu.RUnlock()

	ci := m.table.ColumnIndex(col)
	if ci < 0 {
		return 0, 0, fmt.Errorf("core: unknown column %q", col)
	}
	if m.table.Columns[ci].Kind != dataset.Continuous {
		return 0, 0, fmt.Errorf("core: AVG target %q is categorical", col)
	}
	info := &m.cols[ci]
	cons, err := m.buildConstraints(q)
	if err != nil {
		return 0, 0, err
	}
	iv := query.Everything()
	if q.Ranges[ci] != nil {
		iv = *q.Ranges[ci]
	}
	// Factored and alternative-reducer targets have no per-code value to
	// integrate, so the sampler must draw them: admit every code.
	switch {
	case cons[info.First] != nil:
	case info.kind == kindReduced:
		cons[info.First] = ar.RangeConstraint{Lo: 0, Hi: m.arm.Cards[info.First] - 1}
	case info.kind == kindFactored:
		if err := info.Constrain(query.Everything(), cons, &ar.Arena{}); err != nil {
			return 0, 0, err
		}
	}

	w := m.getWorker(m.cfg.NumSamples)
	defer m.putWorker(w)
	ests, err := m.arm.EstimateBatchScratch(w.sess, w.scratch, [][]ar.Constraint{cons},
		m.cfg.NumSamples, []int64{m.QuerySeed(q)})
	if err != nil {
		return 0, 0, err
	}
	rows, probs := w.scratch.Paths(0)
	value := func(s int) (float64, bool) { return m.sampleValue(info, rows[s], iv) }
	if info.kind == kindGMM || info.kind == kindPassthrough {
		if value, err = m.integratedValue(w.sess, ci, iv, rows); err != nil {
			return 0, 0, err
		}
	}
	var num, den float64
	for s, p := range probs {
		if p == 0 {
			continue
		}
		if v, ok := value(s); ok {
			num += p * v
			den += p
		}
	}
	if den == 0 {
		return 0, 0, fmt.Errorf("core: no matching tuples sampled for AVG")
	}
	return num / den, ests[0], nil
}

// integratedValue returns the Rao-Blackwellized value estimate of path s for
// a GMM or passthrough target: the target's conditional mean over its
// admitted codes, read from a re-forward of the final rows (MADE masks make
// the target column's conditional depend only on earlier, already sampled
// columns).
func (m *Model) integratedValue(sess *nn.Session, ci int, iv query.Interval, rows [][]int) (func(s int) (float64, bool), error) {
	info := &m.cols[ci]
	card := m.arm.Cards[info.First]
	vals := make([]float64, card)
	wts := make([]float64, card)
	switch info.kind {
	case kindGMM:
		for k := 0; k < info.gm.K(); k++ {
			v, _ := truncatedNormalMean(info.gm.Means[k], info.gm.Sigmas[k], iv.Lo, iv.Hi)
			vals[k] = v
		}
		// Corrected masses even under Uncorrected: the value estimate
		// integrates the target's conditional over the interval itself.
		lo, hi := ar.ClosedBounds(iv)
		info.mass(lo, hi, wts)
	case kindPassthrough:
		loCode, hiCode, ok, err := info.Codes(iv)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("core: AVG over an empty range")
		}
		for k := loCode; k <= hiCode; k++ {
			vals[k] = info.Enc.DecodeFloat(k)
			wts[k] = 1
		}
	}

	sess.Forward(rows)
	dist := make([]float64, card)
	return func(s int) (float64, bool) {
		sess.Dist(s, info.First, dist)
		var vSum, wSum float64
		for k := 0; k < card; k++ {
			a := dist[k] * wts[k]
			vSum += a * vals[k]
			wSum += a
		}
		return vSum / wSum, wSum > 0
	}, nil
}

// sampleValue turns a sampled AR row into a value estimate for a factored
// or alternative-reducer target column, restricted to interval iv.
func (m *Model) sampleValue(info *colInfo, row []int, iv query.Interval) (float64, bool) {
	if info.kind == kindFactored {
		return info.Enc.DecodeFloat(info.Factor.Join(row[info.First : info.First+info.Count])), true
	}
	// Alternative reducers expose no component moments; approximate with
	// the midpoint of the sampled code's range clipped to the interval and
	// to the observed values.
	clo, chi := info.reducer.Range(row[info.First])
	lo, hi := max(iv.Lo, info.dataLo, clo), min(iv.Hi, info.dataHi, chi)
	if lo > hi {
		return 0, false
	}
	return (lo + hi) / 2, true
}

// truncatedNormalMean returns E[X | lo ≤ X ≤ hi] for X ~ N(mu, sigma²).
func truncatedNormalMean(mu, sigma, lo, hi float64) (float64, bool) {
	alpha := (lo - mu) / sigma
	beta := (hi - mu) / sigma
	if math.IsInf(lo, -1) {
		alpha = math.Inf(-1)
	}
	if math.IsInf(hi, 1) {
		beta = math.Inf(1)
	}
	phi := func(z float64) float64 {
		if math.IsInf(z, 0) {
			return 0
		}
		return vecmath.NormalPDF(z, 0, 1)
	}
	cdf := func(z float64) float64 { return vecmath.NormalCDF(z, 0, 1) }
	z := cdf(beta) - cdf(alpha)
	if z <= 1e-12 {
		// The component barely intersects the interval; use the nearest
		// endpoint as the value estimate.
		switch {
		case !math.IsInf(lo, -1) && mu < lo:
			return lo, true
		case !math.IsInf(hi, 1) && mu > hi:
			return hi, true
		default:
			return mu, true
		}
	}
	return mu + sigma*(phi(alpha)-phi(beta))/z, true
}
