// Package gmm implements the one-dimensional Gaussian mixture models that
// IAM uses to reduce the domain of continuous attributes (paper §4.2): EM and
// mini-batch SGD fitting (the KeOps-style training the paper adopts so GMMs
// can be optimized jointly with the autoregressive model), a variational-
// Bayes-flavoured component-count selection, maximum-probability component
// assignment (Eq. 5), and the per-component range masses P̂_GMM(R) needed by
// the unbiased progressive-sampling algorithm (§5.2) in exact (Gaussian CDF),
// Monte-Carlo (paper-faithful), and empirical variants.
package gmm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"iam/internal/vecmath"
)

// Model is a K-component univariate Gaussian mixture.
type Model struct {
	Weights []float64 // mixture weights φ, on the simplex
	Means   []float64 // component means μ
	Sigmas  []float64 // component standard deviations σ (> 0)
}

// K returns the number of components.
func (m *Model) K() int { return len(m.Weights) }

// Validate checks the model invariants: equal parameter lengths, valid
// components (CheckComponents) and weights summing to 1.
func (m *Model) Validate() error {
	k := m.K()
	if len(m.Means) != k || len(m.Sigmas) != k {
		return fmt.Errorf("gmm: parameter length mismatch %d/%d/%d", k, len(m.Means), len(m.Sigmas))
	}
	if err := CheckComponents(m.Weights, m.Means, m.Sigmas); err != nil {
		return err
	}
	var sum float64
	for _, w := range m.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("gmm: weights sum to %v", sum)
	}
	return nil
}

// CheckComponents rejects a mixture component with a negative, NaN or
// infinite weight, a non-finite mean, or a sigma that is not finite and
// positive — the values a model file or a training checkpoint must not
// carry into the sampler. The slices must have equal lengths.
func CheckComponents(weights, means, sigmas []float64) error {
	for j, w := range weights {
		mu, sd := means[j], sigmas[j]
		if !(w >= 0) || math.IsInf(w, 0) || math.IsNaN(mu) || math.IsInf(mu, 0) || !(sd > 0) || math.IsInf(sd, 0) {
			return fmt.Errorf("gmm: component %d has weight %v, mean %v, sigma %v", j, w, mu, sd)
		}
	}
	return nil
}

// PDF returns the mixture density at x.
func (m *Model) PDF(x float64) float64 {
	var p float64
	for k := range m.Weights {
		p += float64(m.Weights[k] * vecmath.NormalPDF(x, m.Means[k], m.Sigmas[k]))
	}
	return p
}

// LogLikelihood returns log p(x) computed stably in log space.
func (m *Model) LogLikelihood(x float64) float64 {
	buf := make([]float64, m.K())
	m.logJoint(x, buf)
	return vecmath.LogSumExp(buf)
}

// logJoint fills out[k] = log(φ_k) + log N(x | μ_k, σ_k).
func (m *Model) logJoint(x float64, out []float64) {
	for k := range out {
		w := m.Weights[k]
		if w <= 0 {
			out[k] = math.Inf(-1)
			continue
		}
		// Validate and the SGD trainer's variance floor keep every σ strictly positive.
		out[k] = math.Log(w) + vecmath.NormalLogPDF(x, m.Means[k], m.Sigmas[k])
	}
}

// Responsibilities fills out[k] = P(component k | x), the posterior over
// components given the observation. When x lies so far from every
// component that each log-joint underflows to −Inf, the posterior is its
// limit: all mass on the component nearest in σ units.
func (m *Model) Responsibilities(x float64, out []float64) {
	m.logJoint(x, out)
	lse := vecmath.LogSumExp(out)
	if math.IsInf(lse, -1) {
		clear(out)
		out[m.nearest(x)] = 1
		return
	}
	for k := range out {
		d := out[k] - lse
		if d > 0 {
			d = 0 // log-responsibility ≤ 0 by construction of lse
		}
		out[k] = math.Exp(d)
	}
}

// Assign returns the maximum-probability component index for x — the new
// attribute value a′ of Eq. 5. When every log-joint underflows to −Inf it
// returns the component nearest in σ units, the limit of the argmax.
func (m *Model) Assign(x float64) int {
	best, bi := math.Inf(-1), -1
	for k := range m.Weights {
		if m.Weights[k] <= 0 {
			continue
		}
		v := math.Log(m.Weights[k]) + vecmath.NormalLogPDF(x, m.Means[k], m.Sigmas[k])
		if v > best {
			best, bi = v, k
		}
	}
	if bi < 0 {
		return m.nearest(x)
	}
	return bi
}

// nearest returns the positive-weight component with the smallest
// |x−μ|/σ, the lowest index on ties (and 0 when no weight is positive). Far
// from the data −z²/2 dominates every log-joint, so this component takes
// the whole posterior in the limit.
func (m *Model) nearest(x float64) int {
	bi, best := -1, math.Inf(1)
	for k, w := range m.Weights {
		if w <= 0 {
			continue
		}
		if z := math.Abs(x-m.Means[k]) / m.Sigmas[k]; bi < 0 || z < best {
			bi, best = k, z
		}
	}
	return max(bi, 0)
}

// AssignAll maps every value to its component index.
func (m *Model) AssignAll(values []float64) []int {
	out := make([]int, len(values))
	for i, v := range values {
		out[i] = m.Assign(v)
	}
	return out
}

// NLL returns the mean negative log-likelihood of values under the model
// (Eq. 4 of the paper).
func (m *Model) NLL(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	buf := make([]float64, m.K())
	var s float64
	for _, v := range values {
		m.logJoint(v, buf)
		s -= vecmath.LogSumExp(buf)
	}
	return s / float64(len(values))
}

// Sample draws one value from the mixture.
func (m *Model) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	var acc float64
	k := m.K() - 1
	for i, w := range m.Weights {
		acc += w
		if u < acc {
			k = i
			break
		}
	}
	return m.Means[k] + float64(rng.NormFloat64()*m.Sigmas[k])
}

// RangeMassExact fills out[k] = P(lo ≤ X ≤ hi) for X ~ N(μ_k, σ_k²), the
// per-component range mass computed with the Gaussian CDF. This is the
// deterministic alternative to the paper's Monte-Carlo estimate.
func (m *Model) RangeMassExact(lo, hi float64, out []float64) {
	for k := range out {
		out[k] = vecmath.NormalRangeMass(lo, hi, m.Means[k], m.Sigmas[k])
	}
}

// SizeBytes returns the serialized model size: three float64 parameters per
// component (weight, mean, sigma), as the paper counts GMM storage.
func (m *Model) SizeBytes() int { return 3 * 8 * m.K() }

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	return &Model{
		Weights: append([]float64(nil), m.Weights...),
		Means:   append([]float64(nil), m.Means...),
		Sigmas:  append([]float64(nil), m.Sigmas...),
	}
}

// RangeSampler is the paper's Monte-Carlo range-mass estimator (§5.2) on one
// shared set of S standard-normal draws, kept sorted. Every component is a
// location-scale shift of N(0, 1), so component k's mass of [lo, hi] is the
// fraction of draws z with lo ≤ μ_k + σ_k·z ≤ hi, read with two binary
// searches at the standardized bounds. Each component's mass is an S-draw
// Monte-Carlo fraction with the law §5.2 asks for; only the correlation
// across components differs from drawing a set per component. The set
// depends on neither μ nor σ, so it is drawn once, when the column is built,
// and Mass reads the mixture's current parameters.
type RangeSampler struct {
	z []float64 // S standard-normal draws, ascending
}

// NewRangeSampler draws S standard-normal samples from rng and sorts them.
func NewRangeSampler(s int, rng *rand.Rand) *RangeSampler {
	z := make([]float64, s)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	sort.Float64s(z)
	return &RangeSampler{z: z}
}

// Mass fills out[k] = S_k/S, the fraction of draws that component k of m
// maps into [lo, hi]. len(out) == m.K().
//
// iam:noalloc
func (rs *RangeSampler) Mass(m *Model, lo, hi float64, out []float64) {
	n := len(rs.z)
	if hi < lo || n == 0 {
		clear(out)
		return
	}
	for k := range out {
		mu, sd := m.Means[k], m.Sigmas[k]
		a := sort.SearchFloat64s(rs.z, (lo-mu)/sd)
		b := sort.SearchFloat64s(rs.z, math.Nextafter((hi-mu)/sd, math.Inf(1)))
		out[k] = float64(b-a) / float64(n)
	}
}

// Empirical computes per-component range masses from the training data
// itself: Mass[k] = s(R ∩ component k) / s(component k), the exact quantity
// in the paper's unbiasedness proof (Theorem 5.1). It is an extension beyond
// the paper's Gaussian-sampling estimate.
type Empirical struct {
	perComp [][]float64 // values assigned to each component, ascending
}

// NewEmpirical partitions values by argmax component assignment.
func NewEmpirical(m *Model, values []float64) *Empirical {
	e := &Empirical{perComp: make([][]float64, m.K())}
	for _, v := range values {
		k := m.Assign(v)
		e.perComp[k] = append(e.perComp[k], v)
	}
	for k := range e.perComp {
		sort.Float64s(e.perComp[k])
	}
	return e
}

// Mass fills out[k] with the fraction of component-k tuples inside [lo, hi].
// Empty components get mass 0.
func (e *Empirical) Mass(lo, hi float64, out []float64) {
	for k, xs := range e.perComp {
		if hi < lo || len(xs) == 0 {
			out[k] = 0
			continue
		}
		a := sort.SearchFloat64s(xs, lo)
		b := sort.SearchFloat64s(xs, math.Nextafter(hi, math.Inf(1)))
		out[k] = float64(b-a) / float64(len(xs))
	}
}
