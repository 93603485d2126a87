//go:build !amd64

package vecmath

// useAVX2 and hasFMA are false off amd64: the kernels always run their Go
// loops.
var useAVX2, hasFMA = false, false

// dotTile2x4 exists only on amd64; matMulABTBlock never calls it here.
func dotTile2x4(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64) {
	panic("vecmath: dotTile2x4 needs amd64")
}

// axpyTile16 exists only on amd64; the matmul kernels never call it here.
func axpyTile16(dst, a *float64, as int, b *float64, bs, n int) {
	panic("vecmath: axpyTile16 needs amd64")
}

// dotTile2x4Out exists only on amd64; matMulABTBlock never calls it here.
func dotTile2x4Out(a0, a1, b0, b1, b2, b3 *float64, n, j int, o0, o1 *rowOut) {
	panic("vecmath: dotTile2x4Out needs amd64")
}

// expTile exists only on amd64; expSum never calls it here.
func expTile(dst, x []float64, m, z float64) (n int, sum float64) {
	panic("vecmath: expTile needs amd64")
}

// maxTile exists only on amd64; shiftMax never calls it here.
func maxTile(x []float64) float64 {
	panic("vecmath: maxTile needs amd64")
}

// addTile exists only on amd64; AddTo never calls it here.
func addTile(dst, x []float64) {
	panic("vecmath: addTile needs amd64")
}

// reluTile exists only on amd64; ReLUInPlace never calls it here.
func reluTile(x []float64) {
	panic("vecmath: reluTile needs amd64")
}

// scaleTile exists only on amd64; Scale never calls it here.
func scaleTile(x []float64, s float64) {
	panic("vecmath: scaleTile needs amd64")
}
