// Package vecmath provides the small dense linear-algebra and numerical
// kernels shared by the neural-network engine, the Gaussian mixture models,
// and the statistical estimators in this repository.
//
// Everything operates on float64. Matrices are dense, row-major, and sized at
// construction; the package favours explicit loops over cleverness so the
// hot paths stay allocation-free and easy to audit.
package vecmath

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vecmath: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero resets every element to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// View returns a matrix aliasing the first rows rows of m, without copying.
// Shrinking a pre-allocated buffer to the current batch size this way keeps
// the hot training loops allocation-free while leaving the column width — and
// therefore the layer shape — intact and statically traceable.
func View(m *Matrix, rows int) *Matrix {
	if rows < 0 || rows > m.Rows {
		panic(fmt.Sprintf("vecmath: view of %d rows from a %dx%d matrix", rows, m.Rows, m.Cols))
	}
	return &Matrix{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
}

// ViewInto repoints dst at the first rows rows of src, like View, but reuses
// the caller-owned header instead of allocating one. The matmul kernels hand
// large operations to worker goroutines, which makes their operands escape —
// so a fresh header per call would heap-allocate even on the serial path.
// Long-lived callers (nn.Session) allocate headers once and re-aim them here.
//
// iam:noalloc
func ViewInto(dst, src *Matrix, rows int) *Matrix {
	if rows < 0 || rows > src.Rows {
		//lint:ignore noalloc cold shape-violation panic, never taken on the hot path
		panic(fmt.Sprintf("vecmath: view of %d rows from a %dx%d matrix", rows, src.Rows, src.Cols))
	}
	dst.Rows, dst.Cols, dst.Data = rows, src.Cols, src.Data[:rows*src.Cols]
	return dst
}

// ViewRowsInto repoints dst at rows [lo, hi) of src, reusing the
// caller-owned header like ViewInto. It is how the sampler forwards restrict
// the output layer to one column's logit rows: the row slice is a valid
// Matrix because rows are contiguous in the row-major layout.
//
// iam:noalloc
func ViewRowsInto(dst, src *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > src.Rows {
		//lint:ignore noalloc cold shape-violation panic, never taken on the hot path
		panic(fmt.Sprintf("vecmath: view of rows [%d,%d) from a %dx%d matrix", lo, hi, src.Rows, src.Cols))
	}
	dst.Rows, dst.Cols, dst.Data = hi-lo, src.Cols, src.Data[lo*src.Cols:hi*src.Cols]
	return dst
}

// Eps is the default tolerance of ApproxEqual and ApproxZero: loose enough to
// absorb accumulated float64 rounding in the kernels, tight enough to
// distinguish any quantity the estimators care about.
const Eps = 1e-9

// ApproxEqual reports whether a and b agree within Eps, absolutely for small
// magnitudes and relatively for large ones. The exact a == b shortcut also
// catches equal infinities.
func ApproxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale > 1 {
		return diff <= Eps*scale
	}
	return diff <= Eps
}

// ApproxZero reports whether v is within Eps of zero.
func ApproxZero(v float64) bool {
	return math.Abs(v) <= Eps
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vecmath: dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// Axpy computes y += alpha*x.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("vecmath: axpy length mismatch")
	}
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

// Scale multiplies every element of x by alpha, four at a time on AVX2.
//
// iam:noalloc
func Scale(alpha float64, x []float64) {
	i := 0
	if useAVX2 {
		scaleTile(x, alpha)
		i = len(x) &^ 3
	}
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// AddTo adds x into dst element by element, dst[i] += x[i], four at a time
// on AVX2. Each element is one add either way, so the bits do not depend on
// the path.
//
// iam:noalloc
func AddTo(dst, x []float64) {
	if len(dst) != len(x) {
		panic("vecmath: addto length mismatch")
	}
	i := 0
	if useAVX2 {
		addTile(dst, x)
		i = len(dst) &^ 3
	}
	for ; i < len(dst); i++ {
		dst[i] += x[i]
	}
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Max returns the maximum element of x. It panics on empty input.
func Max(x []float64) float64 {
	if len(x) == 0 {
		panic("vecmath: max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the maximum element of x (first on ties).
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("vecmath: argmax of empty slice")
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Softmax writes softmax(logits) into out (which may alias logits). It is
// numerically stable under large logits: out[i] = exp(min(logits[i] − m, 0))
// / z with m the maximum and z the ascending sum of the exponentials. With
// AVX2 and FMA the max, exp-sum and 1/z passes run four lanes at a time
// (see expSum), bit-identical to the Go loops.
//
// iam:noalloc
func Softmax(out, logits []float64) {
	if len(out) != len(logits) {
		panic("vecmath: softmax length mismatch")
	}
	z := expSum(out, logits, shiftMax(logits))
	if z <= 0 {
		return // unreachable for finite logits: the max element contributes exp(0) = 1
	}
	Scale(1/z, out)
}

// LogSumExp returns log(Σ exp(x_i)) computed stably, summing through the
// same exp tile as Softmax.
//
// iam:noalloc
func LogSumExp(x []float64) float64 {
	m := shiftMax(x)
	if math.IsInf(m, -1) {
		return math.Inf(-1)
	}
	s := expSum(nil, x, m)
	if s <= 0 {
		return math.Inf(-1) // unreachable: the max element contributes exp(0) = 1
	}
	return m + math.Log(s)
}

// shiftMax is Max for the shift of Softmax and LogSumExp, on maxTile where
// the exp tile runs. The lanes may return +0 where Max returns −0 or the
// reverse; neither caller's output moves by it: v − (±0) differs only for
// v = −0, where d is ±0 and exp(±0) = 1, and (±0) + log(s) differs only
// for log(s) = −0, which math.Log never returns.
//
// iam:noalloc
func shiftMax(x []float64) float64 {
	n4 := len(x) &^ 3
	if !useExpTile() || n4 == 0 {
		return Max(x)
	}
	m := maxTile(x)
	for _, v := range x[n4:] {
		if v > m {
			m = v
		}
	}
	return m
}

// useExpTile reports whether expSum runs expTile: AVX2 for its integer
// lanes, and the FMA that math.Exp's own branch needs. expTile holds the
// one intended fused multiply-add in this package, a copy of math.Exp's,
// and runs only where math.Exp takes that branch too.
func useExpTile() bool { return useAVX2 && hasFMA }

// expSum returns z = Σ exp(min(x[i] − m, 0)) summed in ascending i, and
// stores each term in out[i] unless out is nil. Every term is math.Exp's
// value bit for bit: expTile runs the quads it can, and a quad it stops
// at (a lane below −708, near where math.Exp's result turns subnormal, or
// NaN) and the len(x) % 4 tail go through math.Exp one by one.
//
// iam:noalloc
func expSum(out, x []float64, m float64) float64 {
	var z float64
	tile := useExpTile()
	for i := 0; i < len(x); {
		end := len(x)
		if tile {
			var dst []float64
			if out != nil {
				dst = out[i:]
			}
			var k int
			k, z = expTile(dst, x[i:], m, z)
			i += k
			end = min(i+4, len(x)) // the quad expTile stopped at, or the tail
		}
		for ; i < end; i++ {
			d := x[i] - m
			if d > 0 {
				d = 0 // x[i] ≤ m by construction; pin the exponent range anyway
			}
			e := math.Exp(d)
			if out != nil {
				out[i] = e
			}
			z += e
		}
	}
	return z
}

// Normalize scales x in place so it sums to 1. If the sum is not positive it
// sets the uniform distribution instead and returns false.
func Normalize(x []float64) bool {
	if len(x) == 0 {
		return false
	}
	s := Sum(x)
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		u := 1 / float64(len(x))
		for i := range x {
			x[i] = u
		}
		return false
	}
	Scale(1/s, x)
	return true
}

const (
	invSqrt2   = 0.7071067811865476  // 1/√2
	invSqrt2Pi = 0.39894228040143265 // 1/√(2π)
)

// NormalPDF returns the density of N(mu, sigma²) at x.
func NormalPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return invSqrt2Pi / sigma * math.Exp(-0.5*z*z)
}

// NormalLogPDF returns the log-density of N(mu, sigma²) at x.
func NormalLogPDF(x, mu, sigma float64) float64 {
	z := (x - mu) / sigma
	return float64(-0.5*z*z) - math.Log(sigma) - 0.9189385332046727 // log √(2π)
}

// NormalCDF returns P(X ≤ x) for X ~ N(mu, sigma²).
func NormalCDF(x, mu, sigma float64) float64 {
	return float64(0.5 * (1 + math.Erf((x-mu)/sigma*invSqrt2)))
}

// NormalRangeMass returns P(lo ≤ X ≤ hi) for X ~ N(mu, sigma²). A reversed
// interval yields zero.
func NormalRangeMass(lo, hi, mu, sigma float64) float64 {
	if hi < lo {
		return 0
	}
	m := NormalCDF(hi, mu, sigma) - NormalCDF(lo, mu, sigma)
	if m < 0 {
		return 0
	}
	return m
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted, using linear
// interpolation between order statistics. sorted must be ascending and
// non-empty.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("vecmath: quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := float64(q * float64(n-1))
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Variance returns the population variance of x (0 for len < 2).
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	mu := Mean(x)
	var s float64
	for _, v := range x {
		d := v - mu
		s += float64(d * d)
	}
	return s / float64(len(x))
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
