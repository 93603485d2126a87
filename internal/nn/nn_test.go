package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"iam/internal/vecmath"
)

func mustFit(t *testing.T, net *ResMADE, data [][]int, cfg TrainConfig) []float64 {
	t.Helper()
	losses, err := net.Fit(data, cfg)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	return losses
}

func smallNet(t *testing.T, cards []int, seed int64) *ResMADE {
	t.Helper()
	net, err := NewResMADE(Config{Cards: cards, Hidden: []int{16, 16}, EmbedDim: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewResMADEErrors(t *testing.T) {
	if _, err := NewResMADE(Config{Cards: []int{5}}); err == nil {
		t.Fatal("expected error for single column")
	}
	if _, err := NewResMADE(Config{Cards: []int{5, 0}}); err == nil {
		t.Fatal("expected error for zero cardinality")
	}
	for _, hidden := range [][]int{{0}, {-1}, {16, 0, 16}} {
		if _, err := NewResMADE(Config{Cards: []int{5, 3}, Hidden: hidden}); err == nil {
			t.Fatalf("hidden widths %v accepted", hidden)
		}
	}
}

// TestAutoregressiveProperty is the central MADE invariant: the logits of
// column i must be completely unaffected by the input codes of columns ≥ i.
func TestAutoregressiveProperty(t *testing.T) {
	cards := []int{4, 5, 3, 6}
	net := smallNet(t, cards, 1)
	sess := net.NewSession(1)
	rng := rand.New(rand.NewSource(2))

	base := []int{1, 2, 0, 3}
	sess.Forward([][]int{base})
	want := make([][]float64, len(cards))
	for c := range cards {
		want[c] = append([]float64(nil), sess.Logits(0, c)...)
	}

	for trial := 0; trial < 50; trial++ {
		// Perturb a random suffix of the columns (including MASK tokens).
		row := append([]int(nil), base...)
		j := rng.Intn(len(cards))
		for c := j; c < len(cards); c++ {
			row[c] = rng.Intn(cards[c] + 1) // +1 includes MASK
		}
		sess.Forward([][]int{row})
		for c := 0; c <= j; c++ {
			got := sess.Logits(0, c)
			for k := range got {
				if got[k] != want[c][k] {
					t.Fatalf("logits of column %d changed when perturbing columns ≥ %d", c, j)
				}
			}
		}
	}
}

// TestGradientCheck compares analytic gradients against central finite
// differences for a tiny network on a tiny batch.
func TestGradientCheck(t *testing.T) {
	cards := []int{3, 4}
	net, err := NewResMADE(Config{Cards: cards, Hidden: []int{6, 6}, EmbedDim: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := [][]int{{0, 2}, {2, 1}, {1, 3}}
	sess := net.NewSession(len(batch))
	dLogits := vecmath.NewMatrix(len(batch), net.outDim)

	loss := func() float64 {
		sess.Forward(batch)
		var nll float64
		for r := range batch {
			for c := range cards {
				p := make([]float64, cards[c])
				vecmath.Softmax(p, sess.Logits(r, c))
				nll -= math.Log(p[batch[r][c]])
			}
		}
		return nll
	}

	sess.Forward(batch)
	sess.ZeroGrad()
	sess.CrossEntropyGrad(batch, dLogits)
	sess.Backward(dLogits)
	grads := sess.Grads()

	const h = 1e-6
	const tol = 1e-4
	// mask[i] == 0 marks a dead (always-zero) weight: the analytic gradient
	// is masked to zero by design, so skip those in the finite-diff check.
	checkParamMasked := func(name string, p, g, mask []float64, limit int) {
		checked := 0
		for i := 0; i < len(p) && checked < limit; i += 1 + len(p)/limit {
			if mask != nil && mask[i] == 0 {
				continue
			}
			orig := p[i]
			p[i] = orig + h
			up := loss()
			p[i] = orig - h
			down := loss()
			p[i] = orig
			fd := (up - down) / (2 * h)
			if math.Abs(fd-g[i]) > tol*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: analytic %v vs finite-diff %v", name, i, g[i], fd)
			}
			checked++
		}
	}
	checkParam := func(name string, p, g []float64, limit int) {
		checkParamMasked(name, p, g, nil, limit)
	}
	for li, l := range net.layers {
		checkParamMasked("w", l.w.Data, grads.layers[li].dw.Data, l.mask.Data, 30)
		checkParam("b", l.b, grads.layers[li].db, 10)
	}
	outG := &grads.layers[len(net.layers)]
	checkParamMasked("outW", net.outLayer.w.Data, outG.dw.Data, net.outLayer.mask.Data, 30)
	checkParam("outB", net.outLayer.b, outG.db, 10)
	for c := range net.embeds {
		checkParam("embed", net.embeds[c].Data, grads.dEmbeds[c].Data, 20)
	}
}

// TestLearnsJointDistribution trains on a strongly correlated 2-column
// distribution and checks the model recovers both the marginal and the
// conditional.
func TestLearnsJointDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// P(A=0)=0.7; B = A with prob 0.9, else uniform{0,1,2}.
	n := 6000
	data := make([][]int, n)
	for i := range data {
		a := 0
		if rng.Float64() > 0.7 {
			a = 1
		}
		b := a
		if rng.Float64() > 0.9 {
			b = rng.Intn(3)
		}
		data[i] = []int{a, b}
	}
	net, err := NewResMADE(Config{Cards: []int{2, 3}, Hidden: []int{24, 24}, EmbedDim: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	losses, fitErr := net.Fit(data, TrainConfig{Epochs: 12, BatchSize: 128, LR: 5e-3, Seed: 6})
	if fitErr != nil {
		t.Fatalf("Fit: %v", fitErr)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("training did not reduce loss: %v", losses)
	}

	sess := net.NewSession(1)
	sess.Forward([][]int{{0, 0}})
	pa := make([]float64, 2)
	sess.Dist(0, 0, pa)
	if math.Abs(pa[0]-0.7) > 0.05 {
		t.Fatalf("P(A=0) = %v, want ≈0.7", pa[0])
	}
	// Conditional P(B | A=1): ≈ 0.9·δ_1 + 0.1·uniform.
	sess.Forward([][]int{{1, 0}})
	pb := make([]float64, 3)
	sess.Dist(0, 1, pb)
	if math.Abs(pb[1]-(0.9+0.1/3)) > 0.07 {
		t.Fatalf("P(B=1|A=1) = %v, want ≈0.93", pb[1])
	}
}

// TestWildcardMarginalization verifies wildcard-skipping training: feeding
// MASK for column A should make the column-B head predict (approximately)
// the *marginal* P(B), not a conditional.
func TestWildcardMarginalization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8000
	data := make([][]int, n)
	for i := range data {
		a := rng.Intn(2)
		b := a // perfectly correlated
		data[i] = []int{a, b}
	}
	net, err := NewResMADE(Config{Cards: []int{2, 2}, Hidden: []int{24, 24}, EmbedDim: 8, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustFit(t, net, data, TrainConfig{Epochs: 15, BatchSize: 128, LR: 5e-3, Seed: 9, Wildcard: true})

	sess := net.NewSession(1)
	sess.Forward([][]int{{net.MaskToken(0), 0}})
	pb := make([]float64, 2)
	sess.Dist(0, 1, pb)
	// Marginal P(B=0) = 0.5.
	if math.Abs(pb[0]-0.5) > 0.1 {
		t.Fatalf("P(B=0|A=MASK) = %v, want ≈0.5", pb[0])
	}
	// And with A known, the conditional must remain sharp.
	sess.Forward([][]int{{1, 0}})
	sess.Dist(0, 1, pb)
	if pb[1] < 0.85 {
		t.Fatalf("P(B=1|A=1) = %v, want ≈1", pb[1])
	}
}

func TestResidualMaskValidity(t *testing.T) {
	// Residual connections must not break the autoregressive property; use
	// a config with equal consecutive widths to force residual blocks.
	net, err := NewResMADE(Config{Cards: []int{3, 3, 3}, Hidden: []int{12, 12, 12}, EmbedDim: 4, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	hasRes := false
	for _, l := range net.layers {
		if l.hasResidue {
			hasRes = true
		}
	}
	if !hasRes {
		t.Fatal("expected residual connections with equal widths")
	}
	sess := net.NewSession(1)
	sess.Forward([][]int{{0, 0, 0}})
	first := append([]float64(nil), sess.Logits(0, 1)...)
	sess.Forward([][]int{{0, 2, 1}})
	second := sess.Logits(0, 1)
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("residual network violates autoregressive property")
		}
	}
}

func TestColumnOneIsMarginalBiasOnly(t *testing.T) {
	// Column 0's logits may not depend on ANY input.
	net := smallNet(t, []int{4, 4}, 11)
	sess := net.NewSession(1)
	sess.Forward([][]int{{0, 0}})
	want := append([]float64(nil), sess.Logits(0, 0)...)
	sess.Forward([][]int{{3, 2}})
	got := sess.Logits(0, 0)
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("column 0 logits depend on inputs")
		}
	}
}

func TestSessionBatchConsistency(t *testing.T) {
	// A batch forward must agree exactly with row-by-row forwards.
	net := smallNet(t, []int{5, 4, 3}, 12)
	rows := [][]int{{0, 1, 2}, {4, 3, 0}, {2, 2, 2}, {1, 0, 1}}
	big := net.NewSession(len(rows))
	big.Forward(rows)
	single := net.NewSession(1)
	for r, row := range rows {
		single.Forward([][]int{row})
		for c := 0; c < 3; c++ {
			a := big.Logits(r, c)
			b := single.Logits(0, c)
			for i := range a {
				if math.Abs(a[i]-b[i]) > 1e-12 {
					t.Fatalf("batch/single mismatch row %d col %d", r, c)
				}
			}
		}
	}
}

func TestNLLDecreasesWithTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := make([][]int, 2000)
	for i := range data {
		a := rng.Intn(4)
		data[i] = []int{a, (a + 1) % 4}
	}
	net := smallNet(t, []int{4, 4}, 14)
	sess := net.NewSession(256)
	before := net.NLL(sess, data)
	mustFit(t, net, data, TrainConfig{Epochs: 8, BatchSize: 128, LR: 5e-3, Seed: 15})
	after := net.NLL(sess, data)
	if after >= before {
		t.Fatalf("NLL did not decrease: %v -> %v", before, after)
	}
	// A deterministic conditional should approach H(A) = log 4 ≈ 1.386 nats.
	if after > 2.2 {
		t.Fatalf("final NLL %v too high for a deterministic conditional", after)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := smallNet(t, []int{4, 5, 6}, 16)
	// Perturb with a little training so weights are non-initial.
	rng := rand.New(rand.NewSource(17))
	data := make([][]int, 200)
	for i := range data {
		data[i] = []int{rng.Intn(4), rng.Intn(5), rng.Intn(6)}
	}
	mustFit(t, net, data, TrainConfig{Epochs: 2, BatchSize: 64, Seed: 18})

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s1 := net.NewSession(1)
	s2 := loaded.NewSession(1)
	row := [][]int{{1, 2, 3}}
	s1.Forward(row)
	s2.Forward(row)
	for c := 0; c < 3; c++ {
		a, b := s1.Logits(0, c), s2.Logits(0, c)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("loaded model differs at col %d", c)
			}
		}
	}
}

// TestLoadZeroesMaskedWeights: a model file carrying nonzero weights on
// masked (dead) edges loads with those edges at exactly zero, as training
// keeps them — the degree-pruned sampling forward relies on it.
func TestLoadZeroesMaskedWeights(t *testing.T) {
	net := smallNet(t, []int{4, 5, 6}, 20)
	for _, l := range net.allLayers() {
		for i, m := range l.mask.Data {
			if m == 0 {
				l.w.Data[i] = -1.5
			}
		}
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range loaded.allLayers() {
		for i, m := range l.mask.Data {
			if m == 0 && math.Float64bits(l.w.Data[i]) != 0 {
				t.Fatalf("layer %d masked weight %d loaded as %v, want +0", li, i, l.w.Data[i])
			}
		}
	}
}

func TestParamCountAndSize(t *testing.T) {
	net := smallNet(t, []int{4, 4}, 19)
	pc := net.ParamCount()
	if pc <= 0 {
		t.Fatalf("param count %d", pc)
	}
	if net.SizeBytes() != 4*pc {
		t.Fatalf("size bytes %d != 4·%d", net.SizeBytes(), pc)
	}
	// A wider network must be bigger.
	wide, err := NewResMADE(Config{Cards: []int{4, 4}, Hidden: []int{64, 64}, EmbedDim: 8, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	if wide.ParamCount() <= pc {
		t.Fatal("wider network not larger")
	}
}

func TestMaskedWeightsStayZero(t *testing.T) {
	net := smallNet(t, []int{3, 3, 3}, 21)
	rng := rand.New(rand.NewSource(22))
	data := make([][]int, 500)
	for i := range data {
		data[i] = []int{rng.Intn(3), rng.Intn(3), rng.Intn(3)}
	}
	mustFit(t, net, data, TrainConfig{Epochs: 3, BatchSize: 64, Seed: 23})
	check := func(l *maskedLinear) {
		for i, m := range l.mask.Data {
			if m == 0 && l.w.Data[i] != 0 {
				t.Fatalf("masked weight became %v", l.w.Data[i])
			}
		}
	}
	for _, l := range net.layers {
		check(l)
	}
	check(net.outLayer)
}

func TestForwardPanicsOnBadCode(t *testing.T) {
	net := smallNet(t, []int{3, 3}, 24)
	sess := net.NewSession(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range code")
		}
	}()
	sess.Forward([][]int{{5, 0}}) // 5 > card+mask
}
