package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// TestPackedBlockDotMatchesABT: PackedBlockDot over a whole row pair is
// the per-(output, row) chain of MatMulABT, bit for bit. This anchors the
// sampling forward's first-layer table, whose entries are PackedBlockDots,
// as the same reduction the blocked ABT kernel uses.
func TestPackedBlockDotMatchesABT(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, sh := range kernelShapes {
		rows, dim, out := sh[0], sh[1], sh[2]
		x := randMat(rows, dim, rng)
		w := randMat(out, dim, rng)
		got, want := NewMatrix(rows, out), NewMatrix(rows, out)
		for r := 0; r < rows; r++ {
			for o := 0; o < out; o++ {
				got.Row(r)[o] = PackedBlockDot(w.Row(o), x.Row(r))
			}
		}
		MatMulABT(want, x, w)
		bitEqual(t, "PackedBlockDot vs MatMulABT", got, want)
	}
}

func TestPackedBlockDotMatchesNaiveChain(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for n := 0; n <= 19; n++ {
		w := make([]float64, n)
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			w[i], x[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		n4 := n - n%4
		var s0, s1, s2, s3 float64
		for k := 0; k < n4; k += 4 {
			s0 += x[k] * w[k]
			s1 += x[k+1] * w[k+1]
			s2 += x[k+2] * w[k+2]
			s3 += x[k+3] * w[k+3]
		}
		s := s0 + s1 + s2 + s3
		for k := n4; k < n; k++ {
			s += x[k] * w[k]
		}
		if math.Float64bits(PackedBlockDot(w, x)) != math.Float64bits(s) {
			t.Fatalf("PackedBlockDot(n=%d) = %v, want %v", n, PackedBlockDot(w, x), s)
		}
	}
}

func TestViewRowsInto(t *testing.T) {
	src := NewMatrix(6, 3)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	var hdr Matrix
	v := ViewRowsInto(&hdr, src, 2, 5)
	if v.Rows != 3 || v.Cols != 3 {
		t.Fatalf("view shape %dx%d, want 3x3", v.Rows, v.Cols)
	}
	if math.Float64bits(v.Row(0)[0]) != math.Float64bits(src.Row(2)[0]) ||
		math.Float64bits(v.Row(2)[2]) != math.Float64bits(src.Row(4)[2]) {
		t.Fatalf("view rows not aimed at [2,5)")
	}
}
