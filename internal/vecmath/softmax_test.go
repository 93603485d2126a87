package vecmath

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// softmaxRef and logSumExpRef are the Go loops Softmax and LogSumExp ran
// before their passes moved onto the exp tile: Max, then one math.Exp per
// element summed in ascending order, then the 1/z pass. Both paths must
// match them bit for bit.
func softmaxRef(out, logits []float64) {
	m := Max(logits)
	var z float64
	for i, v := range logits {
		d := v - m
		if d > 0 {
			d = 0
		}
		e := math.Exp(d)
		out[i] = e
		z += e
	}
	if z <= 0 {
		return
	}
	inv := 1 / z
	for i := range out {
		out[i] *= inv
	}
}

func logSumExpRef(x []float64) float64 {
	m := Max(x)
	if math.IsInf(m, -1) {
		return math.Inf(-1)
	}
	var s float64
	for _, v := range x {
		d := v - m
		if d > 0 {
			d = 0
		}
		s += math.Exp(d)
	}
	if s <= 0 {
		return math.Inf(-1)
	}
	return m + math.Log(s)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// expInputs is the sweep TestExpTileMatchesMathExp runs: [−745, 0] in
// 2²⁰ even steps (whole quads below −708, so the tile must refuse them,
// and whole quads in range), 64 ulps on each side of −708 and of −708.4
// (where math.Exp's scale goes subnormal), inputs whose results are
// subnormal or round to 0, ±0, tiny magnitudes, positives (which the clamp
// pins to exp(0) = 1), ±Inf and NaN; then the same values shuffled, so
// quads mix lanes the tile takes with lanes it refuses.
func expInputs(rng *rand.Rand) []float64 {
	const steps = 1 << 20
	var x []float64
	for i := 0; i <= steps; i++ {
		x = append(x, -745*float64(i)/steps)
	}
	for _, c := range []float64{-708, -708.4, -745} {
		v := c
		for i := 0; i < 64; i++ {
			v = math.Nextafter(v, 0)
			x = append(x, v)
		}
		v = c
		for i := 0; i < 64; i++ {
			v = math.Nextafter(v, math.Inf(-1))
			x = append(x, v)
		}
	}
	// At and just above −k·ln 2 and −k·LN2U the reductions cancel: the
	// remainder is 0 or about as small as k·LN2L.
	const ln2U = 0.69314718055966295651160180568695068359375
	for k := 0; k <= 1022; k++ {
		for _, c := range []float64{-float64(k) * ln2U, -float64(k) * math.Ln2} {
			v := c
			for i := 0; i < 8; i++ {
				x = append(x, v)
				v = math.Nextafter(v, 0)
			}
		}
	}
	for i := 0; i < 1<<14; i++ {
		x = append(x, -708-37*rng.Float64(), -708*rng.Float64(), -math.Ldexp(rng.Float64(), -rng.Intn(1080)))
	}
	x = append(x, 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, 0.5, 700, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), -746, -1e300)
	for len(x)%4 != 0 {
		x = append(x, -1)
	}
	mixed := append([]float64(nil), x...)
	rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	return append(x, mixed...)
}

// TestExpTileMatchesMathExp: expSum's every term is math.Exp(min(x − m, 0))
// bit for bit and its sum is the ascending one, on both paths, for m = 0
// and for a shift that rounds. On the avx2 path the tile must also take
// every whole quad in [−708, 0] (a test that it ran, not only that the
// fallback agrees).
func TestExpTileMatchesMathExp(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		if useAVX2 && !useExpTile() {
			t.Skip("no FMA: math.Exp does not take the branch the tile copies")
		}
		rng := rand.New(rand.NewSource(29))
		x := expInputs(rng)
		out := make([]float64, len(x))
		for _, m := range []float64{0, 3.7} {
			z := expSum(out, x, m)
			var want float64
			for i, v := range x {
				d := v - m
				if d > 0 {
					d = 0
				}
				e := math.Exp(d)
				if !sameBits(out[i], e) {
					t.Fatalf("m=%v: exp term %d of x=%v (bits %x) = %v (bits %x), math.Exp %v (bits %x)",
						m, i, v, math.Float64bits(v), out[i], math.Float64bits(out[i]), e, math.Float64bits(e))
				}
				want += e
			}
			if !sameBits(z, want) {
				t.Fatalf("m=%v: sum %v, want %v", m, z, want)
			}
			if got := expSum(nil, x, m); !sameBits(got, want) {
				t.Fatalf("m=%v: sum without out %v, want %v", m, got, want)
			}
		}
		if useExpTile() {
			in := make([]float64, 0, 1<<12)
			for i := 0; i < cap(in); i++ {
				in = append(in, -708*float64(i)/float64(cap(in)-1))
			}
			in[1] = math.Copysign(0, -1)
			if n, _ := expTile(out, in, 0, 0); n != len(in) {
				t.Fatalf("expTile ran %d of %d in-range inputs", n, len(in))
			}
		}
	})
}

// softmaxCases returns logit vectors of length n: spread values, a NaN at
// x[0] and a later one, −Inf entries, all −Inf, −0 and +0 maxima in both
// orders, all equal, a +Inf, and entries 800 below the max (terms the tile
// refuses).
func softmaxCases(n int, rng *rand.Rand) [][]float64 {
	fill := func(f func(i int) float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = f(i)
		}
		return x
	}
	spread := func(int) float64 { return 20 * rng.NormFloat64() }
	negZero := math.Copysign(0, -1)
	cases := [][]float64{
		fill(spread),
		fill(func(int) float64 { return 1.25 }),
		fill(func(int) float64 { return math.Inf(-1) }),
		fill(func(i int) float64 { return -800 * float64(i%3) }),
		fill(func(i int) float64 { return []float64{negZero, 0, -3}[i%3] }),
		fill(func(i int) float64 { return []float64{0, negZero, -3}[i%3] }),
	}
	for _, special := range []float64{math.NaN(), math.Inf(-1), math.Inf(1), negZero} {
		for _, at := range []int{0, n / 2, n - 1} {
			x := fill(spread)
			x[at] = special
			cases = append(cases, x)
		}
	}
	x := fill(func(int) float64 { return -rng.Float64() })
	x[n-1] = negZero
	return append(cases, x)
}

// TestSoftmaxMatchesScalar: Softmax equals softmaxRef bit for bit on both
// paths, for lengths 1–67 (every tail length around whole quads), into a
// separate buffer and in place. The shift itself equals Max bit for bit
// but for the sign of a zero maximum: a NaN x[0] gives NaN, a later NaN
// (which poisons the sum, so the outputs alone need not tell) is ignored.
func TestSoftmaxMatchesScalar(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for n := 1; n <= 67; n++ {
			for ci, x := range softmaxCases(n, rng) {
				if got, want := shiftMax(x), Max(x); !sameBits(got, want) && !(got == 0 && want == 0) {
					t.Fatalf("n=%d case %d: shift %v, Max %v (logits %v)", n, ci, got, want, x)
				}
				want := make([]float64, n)
				softmaxRef(want, x)
				got := make([]float64, n)
				Softmax(got, x)
				inPlace := append([]float64(nil), x...)
				Softmax(inPlace, inPlace)
				for i := range want {
					if !sameBits(got[i], want[i]) || !sameBits(inPlace[i], want[i]) {
						t.Fatalf("n=%d case %d: out[%d] = %v, in place %v, want %v (logits %v)",
							n, ci, i, got[i], inPlace[i], want[i], x)
					}
				}
			}
		}
	})
}

// TestLogSumExpMatchesScalar: LogSumExp equals logSumExpRef bit for bit on
// both paths over the same cases.
func TestLogSumExpMatchesScalar(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		for n := 1; n <= 67; n++ {
			for ci, x := range softmaxCases(n, rng) {
				if got, want := LogSumExp(x), logSumExpRef(x); !sameBits(got, want) {
					t.Fatalf("n=%d case %d: LogSumExp = %v, want %v (x %v)", n, ci, got, want, x)
				}
			}
		}
	})
}

// TestAddToScaleMatchScalar: AddTo, Scale and ReLUInPlace equal their
// one-operation Go loops bit for bit at every length 0–67, NaN and −0
// operands included.
func TestAddToScaleMatchScalar(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for n := 0; n <= 67; n++ {
			dst := withSpecials(spreadMat(1, n, rng), true, rng).Data
			x := withSpecials(spreadMat(1, n, rng), true, rng).Data
			got, want := append([]float64(nil), dst...), append([]float64(nil), dst...)
			AddTo(got, x)
			for i := range want {
				want[i] += x[i]
			}
			scaled := append([]float64(nil), x...)
			Scale(-0.3, scaled)
			relu := append([]float64(nil), x...)
			ReLUInPlace(relu)
			for i := range want {
				if !sameBits(got[i], want[i]) || !sameBits(scaled[i], x[i]*-0.3) || !sameBits(relu[i], ReLU(x[i])) {
					t.Fatalf("n=%d element %d: AddTo %v want %v, Scale %v want %v, ReLUInPlace %v want %v",
						n, i, got[i], want[i], scaled[i], x[i]*-0.3, relu[i], ReLU(x[i]))
				}
			}
		}
	})
}

// TestSoftmaxNoAlloc: Softmax, which the sampler runs once per sampled
// column per row, allocates nothing on either path.
func TestSoftmaxNoAlloc(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		logits := randMat(1, 51, rand.New(rand.NewSource(43))).Data
		out := make([]float64, len(logits))
		if n := testing.AllocsPerRun(50, func() { Softmax(out, logits) }); n > 0 {
			t.Fatalf("Softmax allocates %v per op", n)
		}
	})
}

// TestAddToNoAlloc: AddTo, which sums the sampling forward's first layer,
// allocates nothing on either path.
func TestAddToNoAlloc(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		dst, x := randMat(1, 130, rng).Data, randMat(1, 130, rng).Data
		if n := testing.AllocsPerRun(50, func() { AddTo(dst, x) }); n > 0 {
			t.Fatalf("AddTo allocates %v per op", n)
		}
	})
}

// BenchmarkSoftmax: one softmax over a sampled column's logits, at the
// cardinalities 18, 30 and 51, on both paths.
func BenchmarkSoftmax(b *testing.B) {
	eachPath(b, func(b *testing.B) {
		for _, card := range []int{18, 30, 51} {
			b.Run(fmt.Sprintf("card=%d", card), func(b *testing.B) {
				logits := randMat(1, card, rand.New(rand.NewSource(53))).Data
				out := make([]float64, card)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Softmax(out, logits)
				}
			})
		}
	})
}
