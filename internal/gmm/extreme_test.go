package gmm

import (
	"math"
	"math/rand"
	"testing"
)

// TestExtremeInputsStayFinite checks the GMM's numerics far from the data,
// where every component's log-density can underflow to −Inf: the
// responsibilities stay a finite distribution (non-negative, summing to 1),
// Assign agrees with their argmax, and LogLikelihood and NLL are never NaN
// or +Inf — finite while the log-density is representable, −Inf and +Inf
// respectively once it is not.
func TestExtremeInputsStayFinite(t *testing.T) {
	m := &Model{
		Weights: []float64{0.2, 0.5, 0.3},
		Means:   []float64{-2, 0, 5},
		Sigmas:  []float64{0.5, 1, 2},
	}
	xs := []float64{0, 1e10, 1e100, 1e150, 1.3e154, 1e155, 1e200, 1e300, math.MaxFloat64, math.Inf(1)}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		xs = append(xs, math.Pow(10, rng.Float64()*308))
	}
	for _, x := range append(xs, negate(xs)...) {
		out := make([]float64, m.K())
		m.Responsibilities(x, out)
		var sum float64
		argmax := 0
		for k, r := range out {
			if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
				t.Fatalf("x=%g: responsibilities %v not finite and non-negative", x, out)
			}
			sum += r
			if r > out[argmax] {
				argmax = k
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("x=%g: responsibilities %v sum to %v", x, out, sum)
		}
		if a := m.Assign(x); a != argmax {
			t.Fatalf("x=%g: Assign = %d, responsibilities %v peak at %d", x, a, out, argmax)
		}

		ll := m.LogLikelihood(x)
		nll := m.NLL([]float64{x})
		if math.IsNaN(ll) || math.IsInf(ll, 1) || math.IsNaN(nll) || math.IsInf(nll, -1) {
			t.Fatalf("x=%g: LogLikelihood %v, NLL %v", x, ll, nll)
		}
		if math.Abs(x) <= 1e150 && (math.IsInf(ll, 0) || math.IsInf(nll, 0)) {
			t.Fatalf("x=%g: LogLikelihood %v, NLL %v, want finite", x, ll, nll)
		}
		if nll != -ll {
			t.Fatalf("x=%g: NLL %v != −LogLikelihood %v", x, nll, ll)
		}
	}
	// Far out on either side the widest component (σ = 2) is nearest in σ
	// units and takes the whole posterior.
	for _, x := range []float64{1e300, -1e300} {
		out := make([]float64, m.K())
		m.Responsibilities(x, out)
		if out[2] != 1 {
			t.Errorf("x=%g: responsibilities %v, want all mass on component 2", x, out)
		}
	}
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}
