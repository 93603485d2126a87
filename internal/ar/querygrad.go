package ar

import (
	"math"
	"math/rand"

	"iam/internal/nn"
	"iam/internal/vecmath"
)

// TrainQueryStep performs one query-driven gradient step (the UAE training
// primitive): progressive sampling runs with one seed per query drawn from
// rng, the squared log-error between each query's estimate and its target
// probability is differentiated through the per-step range masses
// (∂mass/∂logit_j = p_j·(w_j − mass)) along the frozen sample paths, and one
// Adam update is applied. sess must hold len(consList)·numSamples rows;
// dLogits must be at least that many rows × Σ cards. It returns the batch
// mean squared log-error before the update.
func (m *Model) TrainQueryStep(sess *nn.Session, consList [][]Constraint, targets []float64,
	numSamples int, lr float64, rng *rand.Rand, dLogits *vecmath.Matrix) (float64, error) {

	seeds := make([]int64, len(consList))
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	sc := NewEstimateScratch()
	ests, err := m.EstimateBatchScratch(sess, sc, consList, numSamples, seeds)
	if err != nil {
		return 0, err
	}
	total := len(consList) * numSamples

	// Re-forward the final rows: MADE masks make each column's logits the
	// ones seen during sampling (inputs ≥ c are ignored), so each step's
	// range mass Σ_k d_k·w_k is recomputed from them.
	sess.Forward(sc.rows[:total])

	dl := vecmath.View(dLogits, total)
	dl.Zero()
	dist := make([]float64, maxCard(m.Cards))
	w := make([]float64, maxCard(m.Cards))

	const floor = 1e-9
	var lossSum float64
	anyGrad := false
	for bi, cons := range consList {
		est := ests[bi]
		truth := targets[bi]
		le := math.Log(math.Max(est, floor)) - math.Log(math.Max(truth, floor))
		lossSum += float64(le * le)
		if est <= 0 {
			continue // every path died: no gradient signal for this query
		}
		gEst := vecmath.Clamp(2*le/est, -1e4, 1e4)
		rows, probs := sc.Paths(bi)
		for s, p := range probs {
			if p == 0 {
				continue
			}
			ri := bi*numSamples + s
			for c, card := range m.Cards {
				if cons[c] == nil {
					continue
				}
				d := dist[:card]
				sess.Dist(ri, c, d)
				wv := w[:card]
				cons[c].Fill(rows[s], wv)
				var mass float64
				for k := 0; k < card; k++ {
					mass += float64(d[k] * wv[k])
				}
				if mass <= 0 {
					continue
				}
				gMass := gEst * p / (float64(numSamples) * mass)
				lo, _ := m.Net.LogitRange(c)
				drow := dl.Row(ri)
				for k := 0; k < card; k++ {
					drow[lo+k] += float64(gMass * d[k] * (wv[k] - mass))
				}
				anyGrad = true
			}
		}
	}
	if anyGrad {
		sess.ZeroGrad()
		sess.Backward(dl)
		m.Net.AdamStep(lr, 1/float64(len(consList)), sess.Grads())
	}
	return lossSum / float64(len(consList)), nil
}
