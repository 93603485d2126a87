package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"iam/internal/vecmath"
)

func TestSessionPanicsOnOversizeBatch(t *testing.T) {
	net := smallNet(t, []int{3, 3}, 50)
	sess := net.NewSession(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on oversize batch")
		}
	}()
	sess.Forward([][]int{{0, 0}, {1, 1}, {2, 2}})
}

func TestSessionVariableBatchSizes(t *testing.T) {
	// A session sized 8 must handle any batch ≤ 8 and produce the same
	// logits as a fresh exactly-sized session.
	net := smallNet(t, []int{4, 5}, 51)
	big := net.NewSession(8)
	rng := rand.New(rand.NewSource(52))
	for _, b := range []int{1, 3, 8, 2} {
		rows := make([][]int, b)
		for i := range rows {
			rows[i] = []int{rng.Intn(4), rng.Intn(5)}
		}
		big.Forward(rows)
		exact := net.NewSession(b)
		exact.Forward(rows)
		for r := 0; r < b; r++ {
			for c := 0; c < 2; c++ {
				a, e := big.Logits(r, c), exact.Logits(r, c)
				for i := range a {
					if a[i] != e[i] {
						t.Fatalf("batch %d row %d col %d mismatch", b, r, c)
					}
				}
			}
		}
	}
}

func TestDistSumsToOneProperty(t *testing.T) {
	net := smallNet(t, []int{6, 4, 7}, 53)
	sess := net.NewSession(1)
	f := func(a, b, c uint8) bool {
		row := []int{int(a) % 7, int(b) % 5, int(c) % 8} // includes MASK codes
		sess.Forward([][]int{row})
		for col, card := range net.Cards {
			out := make([]float64, card)
			sess.Dist(0, col, out)
			if !almostOne(vecmath.Sum(out)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func almostOne(x float64) bool { return x > 1-1e-9 && x < 1+1e-9 }

func TestFitEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	data := make([][]int, 300)
	for i := range data {
		data[i] = []int{rng.Intn(3), rng.Intn(3)}
	}
	net := smallNet(t, []int{3, 3}, 55)
	calls := 0
	losses := mustFit(t, net, data, TrainConfig{
		Epochs: 10, BatchSize: 64, Seed: 56,
		OnEpoch: func(e int, nll float64) bool {
			calls++
			return e < 1
		},
	})
	if calls != 2 || len(losses) != 2 {
		t.Fatalf("early stop broken: calls=%d losses=%d", calls, len(losses))
	}
}

// TestInferenceSessionHoldsNoGradients: a session that only runs forwards
// (dense and sampling) never allocates gradient or backward buffers; the
// first Backward does.
func TestInferenceSessionHoldsNoGradients(t *testing.T) {
	cards := []int{4, 6, 5}
	net := smallNet(t, cards, 57)
	sess := net.NewSession(8)
	rows := randRows(8, cards, rand.New(rand.NewSource(58)))
	sess.Forward(rows)
	for col := range cards {
		sess.ForwardSampling(rows, col)
	}
	if sess.grads != nil || sess.gtmp != nil || sess.dx != nil || sess.dpre != nil {
		t.Fatal("inference-only session allocated gradient buffers")
	}
	sess.Forward(rows)
	sess.ZeroGrad()
	sess.Backward(sess.AllLogits())
	if sess.grads == nil || len(sess.dx) != len(sess.x) || len(sess.dpre) != len(sess.pre) {
		t.Fatal("Backward did not allocate its buffers")
	}
}

// TestSamplingOnlySessionThenDense: a session that has only run
// ForwardSampling holds neither the embedded-input buffer, the hidden
// pre-activations nor the dense logits; its first dense Forward allocates
// them, and that Forward, the pre-activations and Logits it leaves and the
// Backward after it match a fresh session's bit for bit. A sampling forward
// after the dense one still matches a fresh sampling session's.
func TestSamplingOnlySessionThenDense(t *testing.T) {
	cards := []int{5, 7, 4, 6}
	net := smallNet(t, cards, 59)
	rng := rand.New(rand.NewSource(60))
	rows := randRows(8, cards, rng)
	targets := randRows(8, cards, rng)
	sampled := net.NewSession(8)
	for col := range cards {
		sampled.ForwardSampling(rows, col)
	}
	if sampled.x[0] != nil || sampled.logits != nil || slices.ContainsFunc(sampled.pre, func(m *vecmath.Matrix) bool { return m != nil }) {
		t.Fatal("a sampling-only session allocated a dense-forward buffer")
	}
	fresh := net.NewSession(8)
	var dls [2]*vecmath.Matrix
	for i, sess := range []*Session{sampled, fresh} {
		sess.Forward(rows)
		dls[i] = vecmath.NewMatrix(len(rows), net.outDim)
		sess.CrossEntropyGrad(targets, dls[i])
		sess.ZeroGrad()
		sess.Backward(dls[i])
	}
	if !slices.Equal(bitsOf(sampled.AllLogits().Data), bitsOf(fresh.AllLogits().Data)) {
		t.Fatal("dense logits differ after sampling-only use")
	}
	for r := range rows {
		for col := range cards {
			if !slices.Equal(bitsOf(sampled.Logits(r, col)), bitsOf(fresh.Logits(r, col))) {
				t.Fatalf("Logits(%d, %d) differ after sampling-only use", r, col)
			}
		}
	}
	for li := range sampled.pre {
		if !slices.Equal(bitsOf(sampled.pre[li].Data), bitsOf(fresh.pre[li].Data)) {
			t.Fatalf("layer %d pre-activations differ after sampling-only use", li)
		}
	}
	ga, gb := sampled.Grads(), fresh.Grads()
	for i := range ga.dEmbeds {
		if !slices.Equal(bitsOf(ga.dEmbeds[i].Data), bitsOf(gb.dEmbeds[i].Data)) {
			t.Fatalf("embedding %d gradient differs after sampling-only use", i)
		}
	}
	for i := range ga.layers {
		if !slices.Equal(bitsOf(ga.layers[i].dw.Data), bitsOf(gb.layers[i].dw.Data)) ||
			!slices.Equal(bitsOf(ga.layers[i].db), bitsOf(gb.layers[i].db)) {
			t.Fatalf("layer %d gradient differs after sampling-only use", i)
		}
	}
	last := len(cards) - 1
	sampled.ForwardSampling(rows, last)
	other := net.NewSession(8)
	other.ForwardSampling(rows, last)
	if !slices.Equal(bitsOf(sampledLogits(sampled)), bitsOf(sampledLogits(other))) {
		t.Fatal("sampling logits differ after dense use")
	}
}

// bitsOf returns the bit patterns of xs, so slices.Equal compares bits.
func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}
