//go:build !amd64

package vecmath

// useAVX2 is false off amd64: the matmul kernels always run their Go tiles.
var useAVX2 = false

// dotTile2x4 exists only on amd64; matMulABTBlock never calls it here.
func dotTile2x4(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64) {
	panic("vecmath: dotTile2x4 needs amd64")
}

// axpyTile16 exists only on amd64; the matmul kernels never call it here.
func axpyTile16(dst, a *float64, as int, b *float64, bs, n int) {
	panic("vecmath: axpyTile16 needs amd64")
}
