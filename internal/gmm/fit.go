package gmm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"iam/internal/vecmath"
)

// sigmaFloor keeps component variances away from collapse; it is relative to
// the data spread chosen at initialization.
const sigmaFloorFrac = 1e-4

// InitKMeansPP initializes a K-component model with k-means++ style seeding
// followed by a handful of Lloyd iterations — the cheap initialization used
// before EM or SGD refinement. values must be non-empty and k ≥ 1.
func InitKMeansPP(values []float64, k int, rng *rand.Rand) (*Model, error) {
	if len(values) == 0 {
		return nil, errors.New("gmm: InitKMeansPP on empty data")
	}
	if k < 1 {
		return nil, fmt.Errorf("gmm: k must be ≥ 1, got %d", k)
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	spread := hi - lo
	if spread <= 0 {
		spread = 1
	}

	// k-means++ seeding.
	centers := make([]float64, 0, k)
	centers = append(centers, values[rng.Intn(len(values))])
	d2 := make([]float64, len(values))
	for len(centers) < k {
		var total float64
		for i, v := range values {
			best := math.Inf(1)
			for _, c := range centers {
				d := v - c
				if d*d < best {
					best = d * d
				}
			}
			d2[i] = best
			total += best
		}
		if total <= 0 {
			// All points coincide with existing centers; spread evenly.
			centers = append(centers, lo+spread*float64(len(centers))/float64(k))
			continue
		}
		u := rng.Float64() * total
		var acc float64
		pick := len(values) - 1
		for i, d := range d2 {
			acc += d
			if u < acc {
				pick = i
				break
			}
		}
		centers = append(centers, values[pick])
	}

	// A few Lloyd iterations.
	assign := make([]int, len(values))
	for iter := 0; iter < 8; iter++ {
		for i, v := range values {
			best, bi := math.Inf(1), 0
			for j, c := range centers {
				d := math.Abs(v - c)
				if d < best {
					best, bi = d, j
				}
			}
			assign[i] = bi
		}
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, v := range values {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for j := range centers {
			if counts[j] > 0 {
				centers[j] = sums[j] / float64(counts[j])
			}
		}
	}

	m := &Model{
		Weights: make([]float64, k),
		Means:   centers,
		Sigmas:  make([]float64, k),
	}
	floor := spread * sigmaFloorFrac
	varSums := make([]float64, k)
	counts := make([]int, k)
	for i, v := range values {
		d := v - centers[assign[i]]
		varSums[assign[i]] += float64(d * d)
		counts[assign[i]]++
	}
	for j := 0; j < k; j++ {
		m.Weights[j] = (float64(counts[j]) + 1) / (float64(len(values)) + float64(k))
		s := math.Sqrt(varSums[j] / math.Max(float64(counts[j]), 1))
		if s < floor {
			// Empty/degenerate cluster: generic width. float64(floor) keeps
			// arm64 from fusing floor's product into this sum.
			s = float64(floor) + spread/float64(k)/6
		}
		m.Sigmas[j] = s
	}
	vecmath.Normalize(m.Weights)
	return m, nil
}

// FitEM refines a model by classic expectation-maximization for at most
// iters iterations (paper §4.2 discusses EM as the classical batch method).
// It returns the fitted model and the final mean NLL.
func FitEM(values []float64, k, iters int, rng *rand.Rand) (*Model, float64, error) {
	m, err := InitKMeansPP(values, k, rng)
	if err != nil {
		return nil, 0, err
	}
	emRefine(m, values, iters, 0, rng)
	return m, m.NLL(values), nil
}

// emRefine runs EM in place. alpha0 > 0 adds a sparse Dirichlet MAP prior on
// the weights (used by SelectK to prune components — those are *meant* to
// lose their mass, so degenerate components are not reseeded in that mode).
// With alpha0 == 0 and a non-nil rng, a component whose responsibility mass
// collapses (empty-cluster degeneracy on pathological data such as constant
// or two-point columns) is re-seeded at a random data point with a generic
// width instead of being left with a vanishing weight and stale variance.
func emRefine(m *Model, values []float64, iters int, alpha0 float64, rng *rand.Rand) *Model {
	n := len(values)
	k := m.K()
	if n == 0 || k == 0 {
		return m // nothing to refine, and every per-count ratio below would divide by zero
	}
	resp := make([]float64, k)
	spread := dataSpread(values)
	floor := spread * sigmaFloorFrac
	// A component is degenerate when it holds less than a millionth of its
	// fair share of the responsibility mass.
	degenerate := 1e-6 * float64(n) / float64(k)
	prevNLL := math.Inf(1)
	for it := 0; it < iters; it++ {
		wSum := make([]float64, k)
		muSum := make([]float64, k)
		varSum := make([]float64, k)
		for _, v := range values {
			m.Responsibilities(v, resp)
			for j := 0; j < k; j++ {
				r := resp[j]
				wSum[j] += r
				muSum[j] += float64(r * v)
			}
		}
		for j := 0; j < k; j++ {
			if wSum[j] > 1e-12 {
				m.Means[j] = muSum[j] / wSum[j]
			}
		}
		for _, v := range values {
			m.Responsibilities(v, resp)
			for j := 0; j < k; j++ {
				d := v - m.Means[j]
				varSum[j] += float64(resp[j] * d * d)
			}
		}
		for j := 0; j < k; j++ {
			if alpha0 == 0 && rng != nil && wSum[j] < degenerate {
				// Empty-cluster degeneracy: restart the component at a
				// random data point with a generic width and a small (but
				// live) weight, giving it a chance to claim mass again.
				m.Means[j] = values[rng.Intn(n)]
				m.Sigmas[j] = math.Max(floor, spread/float64(k)/6)
				m.Weights[j] = 1 / float64(n)
				continue
			}
			w := wSum[j]
			if alpha0 > 0 {
				// MAP with Dirichlet(α0) prior: components whose effective
				// count drops below 1−α0 are driven to zero weight.
				w = math.Max(0, w+alpha0-1)
			}
			m.Weights[j] = w
			if wSum[j] > 1e-12 {
				v := varSum[j] / wSum[j]
				if v < 0 {
					v = 0 // varSum is a sum of r·d² ≥ 0 terms; the pin keeps Sqrt off a negative operand
				}
				s := math.Sqrt(v)
				if s < floor {
					s = floor
				}
				m.Sigmas[j] = s
			}
		}
		vecmath.Normalize(m.Weights)
		// Early stop on convergence (check every few iterations to stay cheap).
		if it%4 == 3 && n > 0 {
			nll := m.NLL(values)
			if math.Abs(prevNLL-nll) < 1e-7 {
				break
			}
			prevNLL = nll
		}
	}
	return m
}

func dataSpread(values []float64) float64 {
	if len(values) == 0 {
		return 1
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi == lo {
		return 1
	}
	return hi - lo
}

// SelectK chooses the number of mixture components for values. The paper
// uses a Variational Bayesian Gaussian Mixture (§4.2) for this; we
// substitute the Bayesian information criterion, which performs the same
// complexity-penalised model selection deterministically: models with
// k = 1..kMax components are fitted by EM on a uniform subsample (mirroring
// the paper's "we only use uniform samples from the dataset") and the k
// minimising BIC = 2·N·NLL + (3k−1)·ln N is returned. The sweep stops early
// once BIC has worsened for several consecutive k.
func SelectK(values []float64, kMax, sampleSize int, rng *rand.Rand) int {
	if len(values) == 0 {
		return 1
	}
	sample := values
	if sampleSize > 0 && len(values) > sampleSize {
		sample = make([]float64, sampleSize)
		for i := range sample {
			sample[i] = values[rng.Intn(len(values))]
		}
	}
	n := float64(len(sample))
	bestK, bestBIC := 1, math.Inf(1)
	worse := 0
	for k := 1; k <= kMax; k++ {
		m, err := InitKMeansPP(sample, k, rng)
		if err != nil {
			break // unreachable: sample is non-empty and k ≥ 1
		}
		emRefine(m, sample, 30, 0, rng)
		params := float64(3*k - 1) // k means + k sigmas + (k−1) free weights
		bic := float64(2*n*m.NLL(sample)) + float64(params*math.Log(n))
		if bic < bestBIC {
			bestK, bestBIC = k, bic
			worse = 0
		} else {
			worse++
			if worse >= 4 {
				break
			}
		}
	}
	return bestK
}

// SGDTrainer optimizes a Model by mini-batch gradient descent on the
// negative log-likelihood (Eq. 4), parameterized so constraints hold by
// construction: weights through softmax logits, sigmas through log σ. This
// is the trainer IAM shares batches with during joint end-to-end training
// (paper §4.3); Adam is the stochastic gradient method.
type SGDTrainer struct {
	Model *Model

	logits []float64
	logSig []float64
	floor  float64

	// Adam state.
	lr         float64
	step       int
	mW, vW     []float64
	mMu, vMu   []float64
	mSig, vSig []float64

	resp []float64 // scratch responsibilities
	// Per-Step gradient scratch, reused across mini-batches so the joint
	// training inner loop does not re-allocate three slices per GMM column
	// per batch. Excluded from CaptureState: scratch, not optimizer state.
	gW, gMu, gSig []float64
}

// NewSGDTrainer wraps an initialized model (e.g. from InitKMeansPP).
func NewSGDTrainer(m *Model, lr float64) *SGDTrainer {
	k := m.K()
	t := &SGDTrainer{
		Model:  m,
		logits: make([]float64, k),
		logSig: make([]float64, k),
		lr:     lr,
		mW:     make([]float64, k), vW: make([]float64, k),
		mMu: make([]float64, k), vMu: make([]float64, k),
		mSig: make([]float64, k), vSig: make([]float64, k),
		resp: make([]float64, k),
		gW:   make([]float64, k), gMu: make([]float64, k), gSig: make([]float64, k),
	}
	for i := 0; i < k; i++ {
		w := math.Max(m.Weights[i], 1e-8)
		t.logits[i] = math.Log(w)
		t.logSig[i] = math.Log(m.Sigmas[i])
		if m.Sigmas[i] < t.floor || t.floor == 0 {
			// floor: smallest initial sigma scaled down.
		}
	}
	minSig := m.Sigmas[0]
	for _, s := range m.Sigmas {
		if s < minSig {
			minSig = s
		}
	}
	t.floor = minSig * 1e-2
	return t
}

// SetLR changes the trainer's learning rate (used by the divergence
// watchdog's backoff during joint training).
func (t *SGDTrainer) SetLR(lr float64) { t.lr = lr }

// Step performs one Adam update on a mini-batch and returns the batch mean
// NLL *before* the update. The wrapped Model is kept in sync.
func (t *SGDTrainer) Step(batch []float64) float64 {
	if len(batch) == 0 {
		return 0 // an empty batch has no gradient, and 1/len would blow up below
	}
	k := t.Model.K()
	gW, gMu, gSig := t.gW, t.gMu, t.gSig
	for j := 0; j < k; j++ {
		gW[j], gMu[j], gSig[j] = 0, 0, 0
	}
	var nll float64
	for _, x := range batch {
		t.Model.logJoint(x, t.resp)
		lse := vecmath.LogSumExp(t.resp)
		nll -= lse
		for j := 0; j < k; j++ {
			lresp := t.resp[j] - lse
			if lresp > 0 {
				lresp = 0 // log-responsibility ≤ 0 by construction of lse
			}
			r := math.Exp(lresp) // responsibility
			// ∂NLL/∂logit_j = φ_j − r_j  (softmax + mixture likelihood)
			gW[j] += t.Model.Weights[j] - r
			sig := t.Model.Sigmas[j]
			if sig <= 0 {
				continue // sync floors σ above zero; a dead component gets no gradient
			}
			d := (x - t.Model.Means[j]) / sig
			// ∂NLL/∂μ_j = −r_j (x−μ)/σ²
			gMu[j] -= r * d / sig
			// ∂NLL/∂logσ_j = −r_j (d² − 1)
			gSig[j] -= float64(r * (float64(d*d) - 1))
		}
	}
	inv := 1 / float64(len(batch))
	vecmath.Scale(inv, gW)
	vecmath.Scale(inv, gMu)
	vecmath.Scale(inv, gSig)

	t.step++
	adam(t.logits, gW, t.mW, t.vW, t.lr, t.step)
	adam(t.Model.Means, gMu, t.mMu, t.vMu, t.lr, t.step)
	adam(t.logSig, gSig, t.mSig, t.vSig, t.lr, t.step)
	t.sync()
	return nll * inv
}

// sync re-derives the constrained parameters from the free ones.
func (t *SGDTrainer) sync() {
	vecmath.Softmax(t.Model.Weights, t.logits)
	for j := range t.logSig {
		// logσ is a free parameter; overflow surfaces as +Inf σ and is caught by the divergence watchdog.
		s := math.Exp(t.logSig[j])
		if s < t.floor && t.floor > 0 {
			s = t.floor
			t.logSig[j] = math.Log(s)
		}
		t.Model.Sigmas[j] = s
	}
}

// adam applies one Adam update to params given gradient g and state m, v.
func adam(params, g, m, v []float64, lr float64, step int) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	if bc1 <= 0 || bc2 <= 0 {
		return // step ≥ 1 keeps both corrections ≥ 1−β > 0; a zero step would divide by zero
	}
	for i := range params {
		m[i] = float64(beta1*m[i]) + float64((1-beta1)*g[i])
		v[i] = float64(beta2*v[i]) + float64((1-beta2)*g[i]*g[i])
		vv := v[i] / bc2
		if vv < 0 {
			vv = 0 // v is an EWMA of g² ≥ 0 terms; the pin keeps Sqrt off a negative operand
		}
		params[i] -= lr * (m[i] / bc1) / (math.Sqrt(vv) + eps)
	}
}

// FitSGD fits a model with epochs of mini-batch Adam, the training procedure
// of paper §4.2. Cancelling ctx stops between mini-batches and returns the
// context's error. Returns the model and final NLL.
func FitSGD(ctx context.Context, values []float64, k, epochs, batchSize int, lr float64, rng *rand.Rand) (*Model, float64, error) {
	m, err := InitKMeansPP(values, k, rng)
	if err != nil {
		return nil, 0, err
	}
	tr := NewSGDTrainer(m, lr)
	idx := rng.Perm(len(values))
	batch := make([]float64, 0, batchSize)
	for e := 0; e < epochs; e++ {
		for start := 0; start < len(idx); start += batchSize {
			if ctx != nil && ctx.Err() != nil {
				return nil, 0, ctx.Err()
			}
			end := start + batchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch = batch[:0]
			for _, i := range idx[start:end] {
				batch = append(batch, values[i])
			}
			tr.Step(batch)
		}
		// Reshuffle between epochs.
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	}
	return m, m.NLL(values), nil
}
