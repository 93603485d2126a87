// Package domainred implements the alternative domain-reduction methods the
// paper compares against GMMs in §6.6 (Tables 9–11): equi-depth histograms,
// spline-based histograms (Neumann & Michel), and uniform mixture models.
// Each satisfies core.Reducer, so it can be swapped into IAM's pipeline in
// place of the Gaussian mixture. All three assume uniformity within a
// component — the root cause of their inflated maximum errors on skewed
// data, which is exactly what the paper's ablation demonstrates.
package domainred

import (
	"math"
	"math/rand"
	"sort"

	"iam/internal/core"
	"iam/internal/vecmath"
)

// EquiDepth is a k-bucket equi-depth histogram reducer ("Hist" in the
// paper's tables).
type EquiDepth struct {
	// bounds[i], bounds[i+1] delimit bucket i; len = k+1.
	bounds []float64
}

// NewEquiDepth builds the histogram from the column values.
func NewEquiDepth(values []float64, k int) *EquiDepth {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if k < 1 {
		k = 1
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	bounds := make([]float64, k+1)
	for i := 0; i <= k; i++ {
		pos := i * (len(sorted) - 1) / k
		bounds[i] = sorted[pos]
	}
	return &EquiDepth{bounds: bounds}
}

// K implements core.Reducer.
func (e *EquiDepth) K() int { return len(e.bounds) - 1 }

// Assign implements core.Reducer.
func (e *EquiDepth) Assign(v float64) int {
	return bucketOf(e.bounds, v)
}

// Range implements core.Reducer: bucket k's bounds.
func (e *EquiDepth) Range(k int) (lo, hi float64) { return e.bounds[k], e.bounds[k+1] }

// RangeMass implements core.Reducer with uniform-within-bucket overlap.
func (e *EquiDepth) RangeMass(lo, hi float64, out []float64) {
	rangeMassUniform(e.bounds, lo, hi, out)
}

// SizeBytes implements core.Reducer.
func (e *EquiDepth) SizeBytes() int { return 8 * len(e.bounds) }

// bucketOf returns the bucket index of v for ascending bounds.
func bucketOf(bounds []float64, v float64) int {
	k := len(bounds) - 1
	// First interior bound > v determines the bucket.
	i := sort.SearchFloat64s(bounds[1:k], math.Nextafter(v, math.Inf(1)))
	if i >= k {
		i = k - 1
	}
	return i
}

// rangeMassUniform fills per-bucket overlap fractions for bucket boundary
// arrays under the uniform-spread assumption.
func rangeMassUniform(bounds []float64, lo, hi float64, out []float64) {
	for b := 0; b < len(bounds)-1; b++ {
		blo, bhi := bounds[b], bounds[b+1]
		out[b] = 0
		if bhi < lo || blo > hi || hi < lo {
			continue
		}
		width := bhi - blo
		if width <= 0 {
			if blo >= lo && blo <= hi {
				out[b] = 1
			}
			continue
		}
		a := math.Max(blo, lo)
		z := math.Min(bhi, hi)
		if z > a {
			out[b] = (z - a) / width
		}
	}
}

// Spline is a spline-based histogram reducer ("Spline"): knots are placed
// greedily where the piecewise-linear interpolation of the empirical CDF
// has the largest error, following the error-minimizing construction of
// Neumann & Michel (2008).
type Spline struct {
	bounds []float64
}

// NewSpline builds a k-segment spline histogram.
func NewSpline(values []float64, k int) *Spline {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if k < 1 {
		k = 1
	}
	// Knot positions as indices into the sorted array; start with the two
	// endpoints and greedily insert the point of maximum CDF deviation.
	knots := []int{0, n - 1}
	for len(knots) < k+1 {
		bestErr, bestPos, bestSeg := -1.0, -1, -1
		for s := 0; s+1 < len(knots); s++ {
			a, b := knots[s], knots[s+1]
			if b-a < 2 {
				continue
			}
			va, vb := sorted[a], sorted[b]
			span := vb - va
			for p := a + 1; p < b; p += 1 + (b-a)/64 { // stride for speed
				// Linear CDF interpolation between the knots.
				var interp float64
				if span > 0 {
					interp = float64(a) + (sorted[p]-va)/span*float64(b-a)
				} else {
					interp = float64(a)
				}
				err := math.Abs(float64(p) - interp)
				if err > bestErr {
					bestErr, bestPos, bestSeg = err, p, s
				}
			}
		}
		if bestPos < 0 {
			break
		}
		knots = append(knots[:bestSeg+1], append([]int{bestPos}, knots[bestSeg+1:]...)...)
	}
	bounds := make([]float64, len(knots))
	for i, p := range knots {
		bounds[i] = sorted[p]
	}
	return &Spline{bounds: bounds}
}

// K implements core.Reducer.
func (s *Spline) K() int { return len(s.bounds) - 1 }

// Assign implements core.Reducer.
func (s *Spline) Assign(v float64) int { return bucketOf(s.bounds, v) }

// Range implements core.Reducer: segment k's knots.
func (s *Spline) Range(k int) (lo, hi float64) { return s.bounds[k], s.bounds[k+1] }

// RangeMass implements core.Reducer.
func (s *Spline) RangeMass(lo, hi float64, out []float64) {
	rangeMassUniform(s.bounds, lo, hi, out)
}

// SizeBytes implements core.Reducer.
func (s *Spline) SizeBytes() int { return 8 * len(s.bounds) }

// UMM is a uniform mixture model reducer ("UMM"): k overlapping uniform
// components [a_j, b_j] with weights, fitted by moment-matching EM
// (responsibility-weighted mean ± √3·std reproduces a uniform's support).
type UMM struct {
	w, a, b []float64
}

// NewUMM fits the mixture with `iters` EM iterations.
func NewUMM(values []float64, k, iters int, seed int64) *UMM {
	if k < 1 {
		k = 1
	}
	if iters <= 0 {
		iters = 25
	}
	// Initialize from equi-depth buckets.
	ed := NewEquiDepth(values, k)
	u := &UMM{w: make([]float64, k), a: make([]float64, k), b: make([]float64, k)}
	for j := 0; j < k; j++ {
		u.w[j] = 1 / float64(k)
		u.a[j] = ed.bounds[j]
		u.b[j] = ed.bounds[j+1]
		if u.b[j] <= u.a[j] {
			u.b[j] = u.a[j] + 1e-9
		}
	}
	// Subsample for EM speed.
	xs := values
	if len(xs) > 20000 {
		rng := rand.New(rand.NewSource(seed))
		sub := make([]float64, 20000)
		for i := range sub {
			sub[i] = values[rng.Intn(len(values))]
		}
		xs = sub
	}
	resp := make([]float64, k)
	for it := 0; it < iters; it++ {
		sumR := make([]float64, k)
		sumX := make([]float64, k)
		sumX2 := make([]float64, k)
		for _, x := range xs {
			var tot float64
			for j := 0; j < k; j++ {
				d := 0.0
				if x >= u.a[j] && x <= u.b[j] {
					d = u.w[j] / (u.b[j] - u.a[j])
				}
				resp[j] = d
				tot += d
			}
			if tot <= 0 {
				// Outside every component: assign to the nearest one.
				best, bj := math.Inf(1), 0
				for j := 0; j < k; j++ {
					c := (u.a[j] + u.b[j]) / 2
					if d := math.Abs(x - c); d < best {
						best, bj = d, j
					}
				}
				resp[bj] = 1
				tot = 1
			}
			for j := 0; j < k; j++ {
				r := resp[j] / tot
				sumR[j] += r
				sumX[j] += r * x
				sumX2[j] += r * x * x
			}
		}
		for j := 0; j < k; j++ {
			if sumR[j] < 1e-9 {
				continue
			}
			mean := sumX[j] / sumR[j]
			variance := math.Max(sumX2[j]/sumR[j]-mean*mean, 1e-18)
			half := math.Sqrt(3 * variance)
			u.a[j] = mean - half
			u.b[j] = mean + half
			u.w[j] = sumR[j]
		}
		vecmath.Normalize(u.w)
	}
	return u
}

// K implements core.Reducer.
func (u *UMM) K() int { return len(u.w) }

// Assign implements core.Reducer: argmax density component.
func (u *UMM) Assign(v float64) int {
	best, bj := -1.0, 0
	nearest, nj := math.Inf(1), 0
	for j := range u.w {
		width := u.b[j] - u.a[j]
		if v >= u.a[j] && v <= u.b[j] && width > 0 {
			d := u.w[j] / width
			if d > best {
				best, bj = d, j
			}
		}
		c := (u.a[j] + u.b[j]) / 2
		if d := math.Abs(v - c); d < nearest {
			nearest, nj = d, j
		}
	}
	if best < 0 {
		return nj
	}
	return bj
}

// Range implements core.Reducer: component k's support [a_k, b_k].
func (u *UMM) Range(k int) (lo, hi float64) { return u.a[k], u.b[k] }

// RangeMass implements core.Reducer.
func (u *UMM) RangeMass(lo, hi float64, out []float64) {
	for j := range u.w {
		out[j] = 0
		if hi < lo {
			continue
		}
		width := u.b[j] - u.a[j]
		if width <= 0 {
			if u.a[j] >= lo && u.a[j] <= hi {
				out[j] = 1
			}
			continue
		}
		a := math.Max(u.a[j], lo)
		z := math.Min(u.b[j], hi)
		if z > a {
			out[j] = (z - a) / width
		}
	}
}

// SizeBytes implements core.Reducer.
func (u *UMM) SizeBytes() int { return 8 * 3 * len(u.w) }

// Factories adapt the reducers to core.Config.ReducerFactory.

// EquiDepthFactory returns a factory for "Hist(k)".
func EquiDepthFactory() func([]float64, int, int64) core.Reducer {
	return func(values []float64, k int, _ int64) core.Reducer {
		return NewEquiDepth(values, k)
	}
}

// SplineFactory returns a factory for "Spline(k)".
func SplineFactory() func([]float64, int, int64) core.Reducer {
	return func(values []float64, k int, _ int64) core.Reducer {
		return NewSpline(values, k)
	}
}

// UMMFactory returns a factory for "UMM(k)".
func UMMFactory() func([]float64, int, int64) core.Reducer {
	return func(values []float64, k int, seed int64) core.Reducer {
		return NewUMM(values, k, 25, seed)
	}
}
