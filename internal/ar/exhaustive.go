package ar

import (
	"iam/internal/nn"
	"iam/internal/vecmath"
)

// EstimateExhaustive computes the model probability of the constraints
// *exactly*, by enumerating every combination of admitted codes over the
// queried columns (unqueried columns stay wildcard-masked, as in
// progressive sampling). The paper rules enumeration out for original
// domains — O(Π|A_i|) — but IAM's GMM reduction shrinks the queried space
// to K^(#queried) which is often tiny; exhaustive evaluation then removes
// all Monte-Carlo error from inference.
//
// The enumeration frontier is capped at limit partial tuples; if the space
// is larger, ok=false is returned and the caller falls back to progressive
// sampling. The last queried column is summed without expansion, so a
// two-column query costs a frontier of at most K, not K².
func (m *Model) EstimateExhaustive(cons []Constraint, limit int) (est float64, ok bool) {
	nCols := len(m.Cards)
	var queried []int
	for c, con := range cons {
		if con != nil {
			queried = append(queried, c)
		}
	}
	if len(queried) == 0 {
		return 1, true
	}
	// Feasibility: the frontier after expanding all but the last queried
	// column is bounded by the product of their cardinalities.
	bound := 1
	for _, c := range queried[:len(queried)-1] {
		bound *= m.Cards[c]
		if bound > limit {
			return 0, false
		}
	}

	// Frontier of partial rows with accumulated probabilities.
	base := make([]int, nCols)
	for c := range base {
		base[c] = m.Net.MaskToken(c)
	}
	rows := [][]int{base}
	probs := []float64{1}

	var sess *nn.Session
	sessCap := 0
	dist := make([]float64, maxCard(m.Cards))
	w := make([]float64, maxCard(m.Cards))

	for qi, c := range queried {
		if len(rows) > sessCap {
			sessCap = len(rows) * 2
			if sessCap > limit {
				sessCap = limit
			}
			if sessCap < len(rows) {
				sessCap = len(rows)
			}
			sess = m.Net.NewSession(sessCap)
		}
		sess.Forward(rows)
		card := m.Cards[c]
		last := qi == len(queried)-1

		if last {
			// Sum the final column's admitted mass per frontier entry.
			var total float64
			for i := range rows {
				d := dist[:card]
				sess.Dist(i, c, d)
				wv := w[:card]
				cons[c].Fill(rows[i], wv)
				var mass float64
				for k := 0; k < card; k++ {
					mass += float64(d[k] * wv[k])
				}
				total += float64(probs[i] * mass)
			}
			return vecmath.Clamp(total, 0, 1), true
		}

		var nextRows [][]int
		var nextProbs []float64
		for i := range rows {
			d := dist[:card]
			sess.Dist(i, c, d)
			wv := w[:card]
			cons[c].Fill(rows[i], wv)
			for k := 0; k < card; k++ {
				p := probs[i] * d[k] * wv[k]
				if p <= 0 {
					continue
				}
				nr := append([]int(nil), rows[i]...)
				nr[c] = k
				nextRows = append(nextRows, nr)
				nextProbs = append(nextProbs, p)
				if len(nextRows) > limit {
					return 0, false
				}
			}
		}
		if len(nextRows) == 0 {
			return 0, true // nothing admitted: probability zero
		}
		rows = nextRows
		probs = nextProbs
	}
	return 0, true // unreachable: the last queried column returns above
}
