package gmm

import (
	"errors"
	"math"
	"math/rand"

	"iam/internal/vecmath"
)

// MultiModel is a diagonal-covariance multivariate Gaussian mixture over d
// attributes. The paper considers (and rejects) fitting several attributes
// with one mixture (§4.2: one covariance matrix costs O(d²) memory — or
// O(d) diagonal as here — and the AR model already owns cross-column
// correlation). It is implemented so that design choice can be evaluated:
// a MultiModel alone is a standalone selectivity estimator whose
// within-component independence assumption the ablation exposes.
type MultiModel struct {
	Weights []float64   // K
	Means   [][]float64 // K×d
	Sigmas  [][]float64 // K×d (per-dimension standard deviations)
}

// K returns the number of components.
func (m *MultiModel) K() int { return len(m.Weights) }

// Dim returns the attribute count.
func (m *MultiModel) Dim() int {
	if len(m.Means) == 0 {
		return 0
	}
	return len(m.Means[0])
}

// LogPDF returns log p(x) under the mixture.
func (m *MultiModel) LogPDF(x []float64) float64 {
	buf := make([]float64, m.K())
	m.logJoint(x, buf)
	return vecmath.LogSumExp(buf)
}

func (m *MultiModel) logJoint(x []float64, out []float64) {
	for k := range m.Weights {
		if m.Weights[k] <= 0 {
			out[k] = math.Inf(-1)
			continue
		}
		l := math.Log(m.Weights[k])
		for d, v := range x {
			l += vecmath.NormalLogPDF(v, m.Means[k][d], m.Sigmas[k][d])
		}
		out[k] = l
	}
}

// Assign returns the maximum-probability component of x.
func (m *MultiModel) Assign(x []float64) int {
	buf := make([]float64, m.K())
	m.logJoint(x, buf)
	return vecmath.ArgMax(buf)
}

// BoxMass fills out[k] = P(lo ≤ X ≤ hi componentwise | component k); with a
// diagonal covariance this is the product of per-dimension Gaussian masses.
func (m *MultiModel) BoxMass(lo, hi []float64, out []float64) {
	for k := range m.Weights {
		p := 1.0
		for d := range lo {
			p *= vecmath.NormalRangeMass(lo[d], hi[d], m.Means[k][d], m.Sigmas[k][d])
			if p == 0 {
				break
			}
		}
		out[k] = p
	}
}

// EstimateBox returns the mixture probability of the box — usable directly
// as a selectivity estimate (the "GMM-only" estimator of the ablation).
func (m *MultiModel) EstimateBox(lo, hi []float64) float64 {
	mass := make([]float64, m.K())
	m.BoxMass(lo, hi, mass)
	var p float64
	for k, w := range m.Weights {
		p += float64(w * mass[k])
	}
	return vecmath.Clamp(p, 0, 1)
}

// NLL returns the mean negative log-likelihood over rows.
func (m *MultiModel) NLL(rows [][]float64) float64 {
	if len(rows) == 0 {
		return 0
	}
	var s float64
	for _, x := range rows {
		s -= m.LogPDF(x)
	}
	return s / float64(len(rows))
}

// SizeBytes counts parameters: weight + d means + d sigmas per component.
func (m *MultiModel) SizeBytes() int { return 8 * m.K() * (1 + 2*m.Dim()) }

// FitMulti fits a K-component diagonal-covariance mixture by k-means++
// initialization followed by EM.
func FitMulti(rows [][]float64, k, iters int, rng *rand.Rand) (*MultiModel, error) {
	if len(rows) == 0 {
		return nil, errors.New("gmm: FitMulti on empty data")
	}
	d := len(rows[0])
	m := initMultiKMeans(rows, k, d, rng)
	resp := make([]float64, k)
	floor := multiSpread(rows, d)
	for i := range floor {
		floor[i] *= sigmaFloorFrac
	}
	for it := 0; it < iters; it++ {
		wSum := make([]float64, k)
		muSum := make([][]float64, k)
		varSum := make([][]float64, k)
		for j := 0; j < k; j++ {
			muSum[j] = make([]float64, d)
			varSum[j] = make([]float64, d)
		}
		for _, x := range rows {
			m.logJoint(x, resp)
			lse := vecmath.LogSumExp(resp)
			for j := 0; j < k; j++ {
				r := math.Exp(resp[j] - lse)
				wSum[j] += r
				for dd, v := range x {
					muSum[j][dd] += float64(r * v)
				}
			}
		}
		for j := 0; j < k; j++ {
			if wSum[j] > 1e-12 {
				for dd := 0; dd < d; dd++ {
					m.Means[j][dd] = muSum[j][dd] / wSum[j]
				}
			}
		}
		for _, x := range rows {
			m.logJoint(x, resp)
			lse := vecmath.LogSumExp(resp)
			for j := 0; j < k; j++ {
				r := math.Exp(resp[j] - lse)
				for dd, v := range x {
					dv := v - m.Means[j][dd]
					varSum[j][dd] += float64(r * dv * dv)
				}
			}
		}
		for j := 0; j < k; j++ {
			m.Weights[j] = wSum[j]
			if wSum[j] > 1e-12 {
				for dd := 0; dd < d; dd++ {
					s := math.Sqrt(varSum[j][dd] / wSum[j])
					if s < floor[dd] {
						s = floor[dd]
					}
					m.Sigmas[j][dd] = s
				}
			}
		}
		vecmath.Normalize(m.Weights)
	}
	return m, nil
}

func multiSpread(rows [][]float64, d int) []float64 {
	lo := append([]float64(nil), rows[0]...)
	hi := append([]float64(nil), rows[0]...)
	for _, x := range rows {
		for dd, v := range x {
			if v < lo[dd] {
				lo[dd] = v
			}
			if v > hi[dd] {
				hi[dd] = v
			}
		}
	}
	out := make([]float64, d)
	for dd := range out {
		out[dd] = hi[dd] - lo[dd]
		if out[dd] <= 0 {
			out[dd] = 1
		}
	}
	return out
}

func initMultiKMeans(rows [][]float64, k, d int, rng *rand.Rand) *MultiModel {
	// k-means++ seeding on Euclidean distance.
	centers := [][]float64{append([]float64(nil), rows[rng.Intn(len(rows))]...)}
	dist2 := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			dv := a[i] - b[i]
			s += float64(dv * dv)
		}
		return s
	}
	for len(centers) < k {
		var total float64
		best := make([]float64, len(rows))
		for i, x := range rows {
			bd := math.Inf(1)
			for _, c := range centers {
				if dd := dist2(x, c); dd < bd {
					bd = dd
				}
			}
			best[i] = bd
			total += bd
		}
		if total <= 0 {
			centers = append(centers, append([]float64(nil), rows[rng.Intn(len(rows))]...))
			continue
		}
		u := rng.Float64() * total
		var acc float64
		pick := len(rows) - 1
		for i, bd := range best {
			acc += bd
			if u < acc {
				pick = i
				break
			}
		}
		centers = append(centers, append([]float64(nil), rows[pick]...))
	}
	spread := multiSpread(rows, d)
	m := &MultiModel{
		Weights: make([]float64, k),
		Means:   centers,
		Sigmas:  make([][]float64, k),
	}
	for j := 0; j < k; j++ {
		m.Weights[j] = 1 / float64(k)
		m.Sigmas[j] = make([]float64, d)
		for dd := 0; dd < d; dd++ {
			m.Sigmas[j][dd] = spread[dd] / float64(k)
		}
	}
	return m
}
