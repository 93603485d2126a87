package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMatMulPacked is the scalar reference for the packed kernel: one
// output at a time, steps in schedule order, each live block reduced by the
// documented four-lane chain. The production kernel's two-output micro-tile
// must match it bit-for-bit.
func naiveMatMulPacked(dst, x, w *Matrix, bias []float64, steps []PackedStep) {
	for r := 0; r < x.Rows; r++ {
		xrow := x.Row(r)
		drow := dst.Row(r)
		for o := 0; o < w.Rows; o++ {
			wrow := w.Row(o)
			acc := bias[o]
			for _, st := range steps {
				if st.Width == 0 {
					acc += st.Part[o]
					continue
				}
				k0, k1 := st.Off, st.Off+st.Width
				k4 := k1 - st.Width%4
				var s0, s1, s2, s3 float64
				for k := k0; k < k4; k += 4 {
					s0 += xrow[k] * wrow[k]
					s1 += xrow[k+1] * wrow[k+1]
					s2 += xrow[k+2] * wrow[k+2]
					s3 += xrow[k+3] * wrow[k+3]
				}
				s := s0 + s1 + s2 + s3
				for k := k4; k < k1; k++ {
					s += xrow[k] * wrow[k]
				}
				acc += s
			}
			drow[o] = acc
		}
	}
}

// randSchedule builds a schedule of nSteps column blocks whose live blocks
// tile [0, packedDim) in order; wildMask selects which steps are wildcards.
// Widths deliberately include non-multiples of four to exercise tails.
func randSchedule(nSteps, out int, wildMask uint, rng *rand.Rand) (steps []PackedStep, packedDim int) {
	for i := 0; i < nSteps; i++ {
		if wildMask&(1<<uint(i)) != 0 {
			part := make([]float64, out)
			for o := range part {
				part[o] = rng.NormFloat64()
			}
			steps = append(steps, PackedStep{Part: part})
			continue
		}
		w := 1 + rng.Intn(11) // 1..11: covers <4, ==4k, and tail widths
		steps = append(steps, PackedStep{Off: packedDim, Width: w})
		packedDim += w
	}
	return steps, packedDim
}

func TestMatMulPackedBitIdenticalToNaive(t *testing.T) {
	for _, par := range []int{1, 4} {
		prev := Parallelism(par)
		rng := rand.New(rand.NewSource(41))
		for _, out := range []int{1, 2, 7, 64, 129} {
			for _, nSteps := range []int{1, 2, 5, 9} {
				for trial := 0; trial < 4; trial++ {
					wildMask := uint(rng.Intn(1 << uint(nSteps)))
					steps, dim := randSchedule(nSteps, out, wildMask, rng)
					rows := 1 + rng.Intn(97)
					x := randMat(rows, dim, rng)
					w := randMat(out, dim, rng)
					bias := make([]float64, out)
					for o := range bias {
						bias[o] = rng.NormFloat64()
					}
					got, want := NewMatrix(rows, out), NewMatrix(rows, out)
					MatMulPacked(got, x, w, bias, steps, nil)
					naiveMatMulPacked(want, x, w, bias, steps)
					bitEqual(t, "MatMulPacked", got, want)
				}
			}
		}
		Parallelism(prev)
	}
}

// TestMatMulPackedSelectedMatchesFull: a selected packed forward writes
// exactly the listed outputs, each bit-identical to the full kernel's.
func TestMatMulPackedSelectedMatchesFull(t *testing.T) {
	for _, par := range []int{1, 4} {
		prev := Parallelism(par)
		rng := rand.New(rand.NewSource(45))
		for _, out := range []int{1, 2, 7, 64, 129} {
			for trial := 0; trial < 4; trial++ {
				steps, dim := randSchedule(5, out, uint(rng.Intn(1<<5)), rng)
				rows := 1 + rng.Intn(97)
				x := randMat(rows, dim, rng)
				w := randMat(out, dim, rng)
				bias := make([]float64, out)
				for o := range bias {
					bias[o] = rng.NormFloat64()
				}
				full := NewMatrix(rows, out)
				MatMulPacked(full, x, w, bias, steps, nil)
				sel := randSel(out, rng)
				got := filledMat(rows, out, -7)
				MatMulPacked(got, x, w, bias, steps, sel)
				selectedBitEqual(t, "MatMulPacked selected", got, full, sel, -7)
			}
		}
		Parallelism(prev)
	}
}

// TestMatMulPackedAllWild pins the degenerate schedule where every column is
// a wildcard: the packed dimension is zero and each output row is exactly
// bias + ΣPart, identical for every row.
func TestMatMulPackedAllWild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const out = 33
	steps, dim := randSchedule(4, out, 0xF, rng)
	if dim != 0 {
		t.Fatalf("all-wild schedule has packed dim %d, want 0", dim)
	}
	x := NewMatrix(5, 0)
	w := NewMatrix(out, 0)
	bias := make([]float64, out)
	for o := range bias {
		bias[o] = rng.NormFloat64()
	}
	dst := NewMatrix(5, out)
	MatMulPacked(dst, x, w, bias, steps, nil)
	for o := 0; o < out; o++ {
		want := bias[o]
		for _, st := range steps {
			want += st.Part[o]
		}
		for r := 0; r < 5; r++ {
			if math.Float64bits(dst.Row(r)[o]) != math.Float64bits(want) {
				t.Fatalf("all-wild row %d out %d = %v, want %v", r, o, dst.Row(r)[o], want)
			}
		}
	}
}

// TestMatMulPackedSingleStepMatchesABT: a schedule with one live block
// spanning the whole panel and zero bias is exactly dst = x·wᵀ, and the
// per-output chain coincides with MatMulABT's — so the two kernels must
// agree bit-for-bit. This anchors PackedBlockDot as the same reduction the
// blocked ABT kernel uses.
func TestMatMulPackedSingleStepMatchesABT(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, sh := range kernelShapes {
		rows, dim, out := sh[0], sh[1], sh[2]
		x := randMat(rows, dim, rng)
		w := randMat(out, dim, rng)
		bias := make([]float64, out)
		steps := []PackedStep{{Off: 0, Width: dim}}
		got, want := NewMatrix(rows, out), NewMatrix(rows, out)
		MatMulPacked(got, x, w, bias, steps, nil)
		MatMulABT(want, x, w)
		bitEqual(t, "MatMulPacked vs MatMulABT", got, want)
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

// TestSerialMatMulPackedNoAlloc extends the serial zero-alloc contract to
// the packed kernel (CI alloc-budget gate runs every *NoAlloc* test here).
func TestSerialMatMulPackedNoAlloc(t *testing.T) {
	prev := Parallelism(1)
	defer Parallelism(prev)
	rng := rand.New(rand.NewSource(59))
	steps, dim := randSchedule(6, 64, 0x15, rng)
	x := randMat(48, dim, rng)
	w := randMat(64, dim, rng)
	bias := make([]float64, 64)
	dst := NewMatrix(48, 64)
	if n := testing.AllocsPerRun(20, func() { MatMulPacked(dst, x, w, bias, steps, nil) }); n > 0 {
		t.Fatalf("serial MatMulPacked allocates %v per op", n)
	}
	sel := []int{63, 0, 17, 18, 5}
	if n := testing.AllocsPerRun(20, func() { MatMulPacked(dst, x, w, bias, steps, sel) }); n > 0 {
		t.Fatalf("serial selected MatMulPacked allocates %v per op", n)
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
