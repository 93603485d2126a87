package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Reference implementations: the straightforward triple loops the blocked
// kernels must match bit-for-bit (these are the pre-blocking kernel bodies).

func naiveMatMul(dst, a, b *Matrix) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range drow {
				drow[j] += av * brow[j]
			}
		}
	}
}

func naiveMatMulATB(dst, a, b *Matrix) {
	dst.Zero()
	for n := 0; n < a.Rows; n++ {
		arow := a.Row(n)
		brow := b.Row(n)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func naiveMatMulABT(dst, a, b *Matrix) {
	c := a.Cols
	c4 := c - c%4
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s0, s1, s2, s3 float64
			for k := 0; k < c4; k += 4 {
				s0 += arow[k] * brow[k]
				s1 += arow[k+1] * brow[k+1]
				s2 += arow[k+2] * brow[k+2]
				s3 += arow[k+3] * brow[k+3]
			}
			s := s0 + s1 + s2 + s3
			for k := c4; k < c; k++ {
				s += arow[k] * brow[k]
			}
			drow[j] = s
		}
	}
}

func randMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0 // exercise the zero-skip paths
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// bitEqual demands exact bit equality, not ApproxEqual: the blocked kernels
// claim the same accumulation order as the naive ones.
func bitEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %x), naive %v (bits %x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// eachPath runs f as subtests "generic" (useAVX2 cleared: the Go tile) and
// "avx2" (the assembly tile, skipped where the CPU or GOARCH lacks it), and
// restores useAVX2 afterwards. tb is a *testing.T or a *testing.B.
func eachPath[T interface {
	Run(string, func(T)) bool
	Skip(...any)
}](tb T, f func(T)) {
	have := useAVX2
	defer func() { useAVX2 = have }()
	for _, avx2 := range []bool{false, true} {
		name := "generic"
		if avx2 {
			name = "avx2"
		}
		tb.Run(name, func(tb T) {
			if avx2 && !have {
				tb.Skip("no AVX2 tile on this CPU or GOARCH")
			}
			useAVX2 = avx2
			f(tb)
		})
	}
}

// kernelShapes spans tiny, tail (non-multiple of the unroll/block sizes),
// and large-enough-to-parallelize shapes.
var kernelShapes = [][3]int{
	{1, 1, 1}, {2, 3, 5}, {7, 4, 9}, {8, 8, 8},
	{17, 33, 65}, {63, 127, 31}, {100, 300, 50}, {256, 40, 300},
	{513, 7, 129},
}

func TestBlockedKernelsBitIdenticalToNaive(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for _, par := range []int{1, 4} {
			prev := Parallelism(par)
			rng := rand.New(rand.NewSource(11))
			for _, sh := range kernelShapes {
				n, k, m := sh[0], sh[1], sh[2]

				a := randMat(n, k, rng)
				b := randMat(k, m, rng)
				got, want := NewMatrix(n, m), NewMatrix(n, m)
				MatMul(got, a, b)
				naiveMatMul(want, a, b)
				bitEqual(t, "MatMul", got, want)

				at := randMat(n, k, rng)
				bt := randMat(n, m, rng)
				got, want = NewMatrix(k, m), NewMatrix(k, m)
				MatMulATB(got, at, bt)
				naiveMatMulATB(want, at, bt)
				bitEqual(t, "MatMulATB", got, want)

				aa := randMat(n, k, rng)
				bb := randMat(m, k, rng)
				got, want = NewMatrix(n, m), NewMatrix(n, m)
				MatMulABT(got, aa, bb)
				naiveMatMulABT(want, aa, bb)
				bitEqual(t, "MatMulABT", got, want)
			}
			Parallelism(prev)
		}
	})
}

// randSel draws a random subset of [0, m) in random order — empty, full and
// odd-length subsets included — for the row-selecting kernels.
func randSel(m int, rng *rand.Rand) []int {
	perm := rng.Perm(m)
	return perm[:rng.Intn(m+1)]
}

func filledMat(rows, cols int, v float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// selectedBitEqual checks a row-selecting kernel's output: the selected
// columns of got match full bit-for-bit, and every other column still holds
// the sentinel it was filled with.
func selectedBitEqual(t *testing.T, name string, got, full *Matrix, sel []int, sentinel float64) {
	t.Helper()
	picked := make([]bool, full.Cols)
	for _, j := range sel {
		picked[j] = true
	}
	for i := 0; i < full.Rows; i++ {
		for j := 0; j < full.Cols; j++ {
			want := sentinel
			if picked[j] {
				want = full.Row(i)[j]
			}
			if math.Float64bits(got.Row(i)[j]) != math.Float64bits(want) {
				t.Fatalf("%s: [%d][%d] = %v, want %v (selected %v)", name, i, j, got.Row(i)[j], want, picked[j])
			}
		}
	}
}

// TestMatMulABTRowsMatchesFull: every selected output of MatMulABTRows is
// bit-identical to the full MatMulABT product, and unselected outputs are
// never written — the contract the degree-pruned sampling forward rests on.
func TestMatMulABTRowsMatchesFull(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for _, par := range []int{1, 4} {
			prev := Parallelism(par)
			rng := rand.New(rand.NewSource(13))
			for _, sh := range kernelShapes {
				n, k, m := sh[0], sh[1], sh[2]
				a := randMat(n, k, rng)
				b := randMat(m, k, rng)
				full := NewMatrix(n, m)
				MatMulABT(full, a, b)
				for trial := 0; trial < 4; trial++ {
					sel := randSel(m, rng)
					got := filledMat(n, m, -7)
					MatMulABTRows(got, a, b, sel)
					selectedBitEqual(t, "MatMulABTRows", got, full, sel, -7)
				}
			}
			Parallelism(prev)
		}
	})
}

// spreadMat fills a rows×cols matrix with ±e^u, u uniform on [−9, 9]: the
// magnitudes span 26 binary orders, so adding a chain's terms in another
// order, or rounding a product and its add once (FMA), changes low bits.
func spreadMat(rows, cols int, rng *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = math.Exp(18*rng.Float64() - 9)
		if rng.Intn(2) == 0 {
			m.Data[i] = -m.Data[i]
		}
	}
	return m
}

// TestAVX2TileEdges: MatMulABTRows equals the naive chain bit for bit at
// every edge of the 2 × 4 tile: reduction widths c = 1…67 (each tail
// length, and c < 4, where the assembly is skipped), output counts m = 1…9
// (quads plus leftover columns), odd and even row counts (the leftover
// row), and column selections that are permuted or repeat a column, with
// inputs spread over e^±9. MatMulABTReLU is checked at the same edges
// (tileEpilogueEdges): its fused store runs inside the tile exactly where
// sel is nil and c % 4 == 0.
func TestAVX2TileEdges(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		prev := Parallelism(1)
		defer Parallelism(prev)
		rng := rand.New(rand.NewSource(23))
		for c := 1; c <= 67; c++ {
			for m := 1; m <= 9; m++ {
				for n := 1; n <= 4; n++ {
					a, b := spreadMat(n, c, rng), spreadMat(m, c, rng)
					want := NewMatrix(n, m)
					naiveMatMulABT(want, a, b)
					dup := make([]int, m+3)
					for i := range dup {
						dup[i] = rng.Intn(m)
					}
					dup[m+2] = dup[0]
					sels := [][]int{nil, rng.Perm(m), dup}
					for _, sel := range sels {
						got := filledMat(n, m, -7)
						MatMulABTRows(got, a, b, sel)
						if sel == nil {
							bitEqual(t, "MatMulABTRows", got, want)
							continue
						}
						selectedBitEqual(t, "MatMulABTRows", got, want, sel, -7)
					}
					tileEpilogueEdges(t, a, b, sels, rng)
				}
			}
		}
	})
}

// tileEpilogueEdges checks MatMulABTReLU against naiveReLULayer on a and b
// with −0, negative and NaN entries planted (and a −0/NaN-laden bias and
// residual), with the residual and the pre-activation store each present
// or absent, for every selection in sels.
func tileEpilogueEdges(t *testing.T, a, b *Matrix, sels [][]int, rng *rand.Rand) {
	t.Helper()
	n, m := a.Rows, b.Rows
	a = withSpecials(a.Clone(), true, rng)
	b = withSpecials(b.Clone(), false, rng)
	bias := withSpecials(spreadMat(1, m, rng), true, rng).Data
	for _, res := range []*Matrix{nil, withSpecials(spreadMat(n, m, rng), true, rng)} {
		want, wantPre := NewMatrix(n, m), NewMatrix(n, m)
		naiveReLULayer(want, wantPre, a, b, bias, res)
		for _, sel := range sels {
			got, gotPre, noPre := filledMat(n, m, -7), filledMat(n, m, -7), filledMat(n, m, -7)
			MatMulABTReLU(got, a, b, sel, Epilogue{Bias: bias, Res: res, Pre: gotPre})
			MatMulABTReLU(noPre, a, b, sel, Epilogue{Bias: bias, Res: res})
			name := fmt.Sprintf("MatMulABTReLU c=%d m=%d n=%d res=%v sel=%v", a.Cols, m, n, res != nil, sel)
			if sel == nil {
				bitEqual(t, name, got, want)
				bitEqual(t, name+" pre", gotPre, wantPre)
				bitEqual(t, name+" without pre", noPre, want)
				continue
			}
			selectedBitEqual(t, name, got, want, sel, -7)
			selectedBitEqual(t, name+" pre", gotPre, wantPre, sel, -7)
			selectedBitEqual(t, name+" without pre", noPre, want, sel, -7)
		}
	}
}

// axpyOperands builds the operands of an r-output-row product reduced over
// kk steps into m columns: a (r×kk, output row by reduction step) and b
// (kk×m), spread over e^±9 so that any other chain order shows in low bits.
// When specials is set, every third reduction step is a trap: its b row
// holds ±Inf and NaN, and a's column there is ±0 in every output row, so a
// kernel that multiplies instead of skipping a ±0 turns those rows into
// NaN. One a element off the traps is NaN, so a kernel that skips NaN as it
// skips zero gives that row finite answers.
func axpyOperands(r, kk, m int, specials bool, rng *rand.Rand) (a, b *Matrix) {
	a, b = spreadMat(r, kk, rng), spreadMat(kk, m, rng)
	for i := range a.Data {
		if rng.Intn(5) == 0 {
			a.Data[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
	}
	if !specials {
		return a, b
	}
	inf := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for k := 0; k < kk; k += 3 {
		for i := 0; i < r; i++ {
			a.Row(i)[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
		for j := range b.Row(k) {
			if rng.Intn(2) == 0 {
				b.Row(k)[j] = inf[rng.Intn(len(inf))]
			}
		}
	}
	if kk > 1 {
		a.Row(rng.Intn(r))[1] = math.NaN()
	}
	return a, b
}

// transposed returns mᵀ.
func transposed(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for k, v := range m.Row(i) {
			t.Row(k)[i] = v
		}
	}
	return t
}

// TestAxpyTileEdges: MatMul and MatMulATB equal the naive kernels bit for
// bit at every edge of the 16-wide AVX2 column tile: widths around and
// between whole tiles (the Go loop takes cols%16), reduction lengths 0, 1
// and either side of a kBlock panel (for MatMulATB, a.Rows of 0 and 1
// included), one and several output rows, serially and split over helpers
// at Parallelism 4. The special operands pin the zero skip: ±0 in a against
// ±Inf and NaN in b is skipped, NaN in a is not.
func TestAxpyTileEdges(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for _, par := range []int{1, 4} {
			prev := Parallelism(par)
			rng := rand.New(rand.NewSource(29))
			for _, m := range []int{1, 15, 16, 17, 33, 64, 65} {
				for _, kk := range []int{0, 1, 256, kBlock + 1} {
					for _, r := range []int{1, 7} {
						for _, specials := range []bool{false, true} {
							a, b := axpyOperands(r, kk, m, specials, rng)
							got, want := filledMat(r, m, -7), NewMatrix(r, m)
							MatMul(got, a, b)
							naiveMatMul(want, a, b)
							bitEqual(t, "MatMul", got, want)

							at := transposed(a)
							got = filledMat(r, m, -7)
							MatMulATB(got, at, b)
							naiveMatMulATB(want, at, b)
							bitEqual(t, "MatMulATB", got, want)
						}
					}
				}
			}
			Parallelism(prev)
		}
	})
}

// TestCPUFeatures logs which matmul and exp paths this host takes. It
// fails when an amd64 CPU whose /proc/cpuinfo lists avx2 was given the Go
// tile, or one that lists avx2 and fma was not given the exp tile, which
// would leave that assembly untested while every "avx2" subtest skips or
// falls back to math.Exp.
func TestCPUFeatures(t *testing.T) {
	t.Logf("GOARCH %s, AVX2 tile %v, exp tile %v", runtime.GOARCH, useAVX2, useExpTile())
	if runtime.GOARCH != "amd64" || useExpTile() {
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot cross-check the CPU flags: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		flags := strings.Fields(line)
		if slices.Contains(flags, "avx2") && !useAVX2 {
			t.Fatal("/proc/cpuinfo lists avx2, but the dispatcher chose the Go tile")
		}
		if slices.Contains(flags, "avx2") && slices.Contains(flags, "fma") {
			t.Fatal("/proc/cpuinfo lists avx2 and fma, but Softmax does not run the exp tile")
		}
	}
}

// TestParallelKernelsConcurrent runs many large matmuls (MatMul and
// MatMulABT) from several goroutines at once: the bounded pool must neither
// deadlock nor mix up outputs when every caller competes for the same
// worker budget.
func TestParallelKernelsConcurrent(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		prev := Parallelism(4)
		defer Parallelism(prev)
		rng := rand.New(rand.NewSource(21))
		a := randMat(200, 80, rng)
		b := randMat(80, 120, rng)
		want := NewMatrix(200, 120)
		naiveMatMul(want, a, b)
		bt := randMat(120, 80, rng)
		wantABT := NewMatrix(200, 120)
		naiveMatMulABT(wantABT, a, bt)

		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst, dstABT := NewMatrix(200, 120), NewMatrix(200, 120)
				for it := 0; it < 20; it++ {
					MatMul(dst, a, b)
					MatMulABT(dstABT, a, bt)
					for i := range want.Data {
						if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
							errs <- "concurrent MatMul diverged from naive result"
							return
						}
						if math.Float64bits(dstABT.Data[i]) != math.Float64bits(wantABT.Data[i]) {
							errs <- "concurrent MatMulABT diverged from naive result"
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatal(msg)
		}
	})
}

// TestParallelismDuringMatMul retunes the worker budget while matmuls large
// enough to split run: kernels read the budget under parMu, so results stay
// bit-identical to the naive kernel and -race reports nothing.
func TestParallelismDuringMatMul(t *testing.T) {
	prev := Parallelism(2)
	defer Parallelism(prev)
	rng := rand.New(rand.NewSource(22))
	a := randMat(200, 80, rng)
	b := randMat(80, 120, rng)
	want := NewMatrix(200, 120)
	naiveMatMul(want, a, b)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
				Parallelism(1 + n%4)
			}
		}
	}()
	dst := NewMatrix(200, 120)
	for it := 0; it < 20; it++ {
		MatMul(dst, a, b)
		for i := range want.Data {
			if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("iteration %d: MatMul diverged from the naive result", it)
			}
		}
	}
}

func TestParallelismKnob(t *testing.T) {
	prev := Parallelism(0) // query
	if prev < 1 {
		t.Fatalf("default parallelism %d, want >= 1", prev)
	}
	if got := Parallelism(3); got != prev {
		t.Fatalf("Parallelism(3) returned %d, want previous %d", got, prev)
	}
	if got := Parallelism(prev); got != 3 {
		t.Fatalf("Parallelism restore returned %d, want 3", got)
	}
}

// TestSerialMatMulNoAlloc pins the allocation-free property the estimate hot
// path depends on: with a worker budget of 1 no kernel may heap-allocate.
func TestSerialMatMulNoAlloc(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		prev := Parallelism(1)
		defer Parallelism(prev)
		a := NewMatrix(64, 48)   // 64×48
		b := NewMatrix(48, 80)   // 48×80: a·b
		bt := NewMatrix(80, 48)  // 80×48: a·btᵀ
		b2 := NewMatrix(64, 80)  // 64×80: aᵀ·b2
		dst := NewMatrix(64, 80) // a·b and a·btᵀ
		dstATB := NewMatrix(48, 80)
		for i := range a.Data {
			a.Data[i] = float64(i%7) + 0.5
		}
		for i := range b.Data {
			b.Data[i] = float64(i%5) - 1.5
		}
		copy(bt.Data, b.Data[:len(bt.Data)])
		copy(b2.Data, b.Data)
		if n := testing.AllocsPerRun(20, func() { MatMul(dst, a, b) }); n > 0 {
			t.Fatalf("serial MatMul allocates %v per op", n)
		}
		if n := testing.AllocsPerRun(20, func() { MatMulABT(dst, a, bt) }); n > 0 {
			t.Fatalf("serial MatMulABT allocates %v per op", n)
		}
		sel := []int{79, 3, 40, 41, 0}
		if n := testing.AllocsPerRun(20, func() { MatMulABTRows(dst, a, bt, sel) }); n > 0 {
			t.Fatalf("serial MatMulABTRows allocates %v per op", n)
		}
		if n := testing.AllocsPerRun(20, func() { MatMulATB(dstATB, a, b2) }); n > 0 {
			t.Fatalf("serial MatMulATB allocates %v per op", n)
		}
	})
}

func benchMats(n, k, m int) (a, b, bt, dst *Matrix) {
	rng := rand.New(rand.NewSource(31))
	a = randMat(n, k, rng)
	b = randMat(k, m, rng)
	bt = randMat(m, k, rng)
	dst = NewMatrix(n, m)
	return
}

func BenchmarkMatMul(b *testing.B) {
	a, bm, _, dst := benchMats(256, 128, 256)
	eachPath(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatMul(dst, a, bm)
		}
		flops := 2 * 256 * 128 * 256
		b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

// BenchmarkMatMulATB times a weight gradient dW = dyᵀ·x at a backward shape:
// a batch of 256 rows, dy 128 wide (the layer's outputs), x 64 wide.
func BenchmarkMatMulATB(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	dy, x, dw := randMat(256, 128, rng), randMat(256, 64, rng), NewMatrix(128, 64)
	eachPath(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatMulATB(dw, dy, x)
		}
		flops := 2 * 256 * 128 * 64
		b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

func BenchmarkMatMulABT(b *testing.B) {
	a, _, bt, dst := benchMats(256, 128, 256)
	eachPath(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			MatMulABT(dst, a, bt)
		}
		flops := 2 * 256 * 128 * 256
		b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	})
}

func BenchmarkMatMulNaiveABT(b *testing.B) {
	a, _, bt, dst := benchMats(256, 128, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveMatMulABT(dst, a, bt)
	}
	flops := 2 * 256 * 128 * 256
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// naiveReLULayer is the reference for MatMulABTReLU: the naive product, then
// a separate bias pass, then the branchy select the fused store replaces —
// dst = v > 0 ? v (+ r) : +0 (or r), pre = v.
func naiveReLULayer(dst, pre, a, b *Matrix, bias []float64, res *Matrix) {
	naiveMatMulABT(pre, a, b)
	for i := 0; i < pre.Rows; i++ {
		prow, drow := pre.Row(i), dst.Row(i)
		for j := range prow {
			v := prow[j] + bias[j]
			prow[j] = v
			var r float64
			if res != nil {
				r = res.Row(i)[j]
			}
			if v > 0 {
				if res != nil {
					drow[j] = v + r
				} else {
					drow[j] = v
				}
			} else {
				drow[j] = r
			}
		}
	}
}

// withSpecials plants the values the fused select must get right: −0 and
// negative entries, and a NaN that poisons one whole product row (a) or
// column (bias). The kernel's sums start at +0, so its pre-activations
// are never −0 (TestReLUBits pins −0 → +0 on ReLU itself), but a −0
// residual must pass through as −0 where the pre-activation is ≤ 0.
func withSpecials(m *Matrix, nan bool, rng *rand.Rand) *Matrix {
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = math.Copysign(0, -1)
		case 1:
			m.Data[i] = -math.Abs(m.Data[i])
		}
	}
	if nan && len(m.Data) > 0 {
		m.Data[rng.Intn(len(m.Data))] = math.NaN()
	}
	return m
}

// TestMatMulABTReLUMatchesNaive: the fused kernel's dst and pre equal the
// naive product + bias pass + branchy ReLU (+ residual) bit for bit on every
// tile path — odd row counts (the single-row tail), odd widths (the
// single-column tail), shapes that fan out over helpers under Parallelism 4,
// full columns (where c % 4 == 0 the AVX2 tile stores the epilogue itself)
// and selected ones (stored through rowOut.put) — while unselected columns
// of dst and pre keep their sentinel.
func TestMatMulABTReLUMatchesNaive(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for _, par := range []int{1, 4} {
			prev := Parallelism(par)
			rng := rand.New(rand.NewSource(17))
			for _, sh := range kernelShapes {
				n, k, m := sh[0], sh[1], sh[2]
				a := withSpecials(randMat(n, k, rng), true, rng)
				b := withSpecials(randMat(m, k, rng), false, rng)
				bias := withSpecials(randMat(1, m, rng), true, rng).Data
				for _, withRes := range []bool{false, true} {
					var res *Matrix
					if withRes {
						res = withSpecials(randMat(n, m, rng), true, rng)
					}
					want, wantPre := NewMatrix(n, m), NewMatrix(n, m)
					naiveReLULayer(want, wantPre, a, b, bias, res)
					for trial := 0; trial < 3; trial++ {
						var sel []int // trial 0: every column
						if trial > 0 {
							sel = randSel(m, rng)
						}
						got, gotPre := filledMat(n, m, -7), filledMat(n, m, -7)
						MatMulABTReLU(got, a, b, sel, Epilogue{Bias: bias, Res: res, Pre: gotPre})
						noPre := filledMat(n, m, -7)
						MatMulABTReLU(noPre, a, b, sel, Epilogue{Bias: bias, Res: res})
						if sel == nil {
							bitEqual(t, "MatMulABTReLU", got, want)
							bitEqual(t, "MatMulABTReLU pre", gotPre, wantPre)
							bitEqual(t, "MatMulABTReLU without pre", noPre, want)
							continue
						}
						selectedBitEqual(t, "MatMulABTReLU", got, want, sel, -7)
						selectedBitEqual(t, "MatMulABTReLU pre", gotPre, wantPre, sel, -7)
						selectedBitEqual(t, "MatMulABTReLU without pre", noPre, want, sel, -7)
					}
				}
			}
			Parallelism(prev)
		}
	})
}

// TestReLUBits pins the select's bit semantics: v > 0 keeps v, and every
// other value — −0, NaN of either sign, negatives, −Inf — gives +0.
func TestReLUBits(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	for _, v := range []float64{1, 5e-324, math.MaxFloat64, math.Inf(1)} {
		if math.Float64bits(ReLU(v)) != math.Float64bits(v) || PosMask(v) != ^uint64(0) {
			t.Fatalf("ReLU(%v) = %v, mask %x", v, ReLU(v), PosMask(v))
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), negNaN, -1, -5e-324, math.Inf(-1)} {
		if math.Float64bits(ReLU(v)) != 0 || PosMask(v) != 0 {
			t.Fatalf("ReLU(%v) bits %x, mask %x; want +0 and 0", v, math.Float64bits(ReLU(v)), PosMask(v))
		}
	}
}

// TestSerialMatMulABTReLUNoAlloc: the fused kernel, with a residual, a
// pre-activation store and a column selection, allocates nothing on the
// serial path — the sampling forward calls it once per hidden layer.
func TestSerialMatMulABTReLUNoAlloc(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		prev := Parallelism(1)
		defer Parallelism(prev)
		rng := rand.New(rand.NewSource(19))
		a, w := randMat(64, 48, rng), randMat(80, 48, rng)
		dst, res, pre := NewMatrix(64, 80), randMat(64, 80, rng), NewMatrix(64, 80)
		bias := randMat(1, 80, rng).Data
		sel := []int{79, 3, 40, 41, 0}
		if n := testing.AllocsPerRun(20, func() {
			MatMulABTReLU(dst, a, w, sel, Epilogue{Bias: bias, Res: res, Pre: pre})
		}); n > 0 {
			t.Fatalf("serial MatMulABTReLU allocates %v per op", n)
		}
		if n := testing.AllocsPerRun(20, func() {
			MatMulABTReLU(dst, a, w, nil, Epilogue{Bias: bias})
		}); n > 0 {
			t.Fatalf("serial MatMulABTReLU without sel allocates %v per op", n)
		}
	})
}
