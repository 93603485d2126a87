//go:build !amd64

package vecmath

// useAVX2 is false off amd64: matMulABTBlock always runs the Go tile.
var useAVX2 = false

// dotTile2x4 exists only on amd64; matMulABTBlock never calls it here.
func dotTile2x4(a0, a1, b0, b1, b2, b3 *float64, n int, out *[8]float64) {
	panic("vecmath: dotTile2x4 needs amd64")
}
