package gmm

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"iam/internal/vecmath"
)

// fitEM / fitSGD / initKPP wrap the fallible fit entry points for tests.
func fitEM(t *testing.T, xs []float64, k, iters int, rng *rand.Rand) (*Model, float64) {
	t.Helper()
	m, nll, err := FitEM(xs, k, iters, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m, nll
}

func fitSGD(t *testing.T, xs []float64, k, epochs, batch int, lr float64, rng *rand.Rand) (*Model, float64) {
	t.Helper()
	m, nll, err := FitSGD(context.Background(), xs, k, epochs, batch, lr, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m, nll
}

func initKPP(t *testing.T, xs []float64, k int, rng *rand.Rand) *Model {
	t.Helper()
	m, err := InitKMeansPP(xs, k, rng)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// twoClusterData draws n points from 0.5·N(-4, 0.5²) + 0.5·N(4, 0.5²).
func twoClusterData(n int, rng *rand.Rand) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		if rng.Float64() < 0.5 {
			xs[i] = -4 + rng.NormFloat64()*0.5
		} else {
			xs[i] = 4 + rng.NormFloat64()*0.5
		}
	}
	return xs
}

func TestFitEMTwoClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := twoClusterData(4000, rng)
	m, nll := fitEM(t, xs, 2, 50, rng)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	means := []float64{m.Means[0], m.Means[1]}
	if means[0] > means[1] {
		means[0], means[1] = means[1], means[0]
	}
	if math.Abs(means[0]+4) > 0.3 || math.Abs(means[1]-4) > 0.3 {
		t.Fatalf("EM means = %v, want ≈ ±4", means)
	}
	for _, w := range m.Weights {
		if math.Abs(w-0.5) > 0.1 {
			t.Fatalf("EM weights = %v, want ≈ 0.5 each", m.Weights)
		}
	}
	if nll > 2 {
		t.Fatalf("EM NLL = %v, implausibly high", nll)
	}
}

func TestFitSGDTwoClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := twoClusterData(4000, rng)
	m, nll := fitSGD(t, xs, 2, 8, 256, 0.05, rng)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	means := []float64{m.Means[0], m.Means[1]}
	if means[0] > means[1] {
		means[0], means[1] = means[1], means[0]
	}
	if math.Abs(means[0]+4) > 0.5 || math.Abs(means[1]-4) > 0.5 {
		t.Fatalf("SGD means = %v, want ≈ ±4", means)
	}
	if nll > 2 {
		t.Fatalf("SGD NLL = %v", nll)
	}
}

func TestSGDDecreasesNLL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := twoClusterData(2000, rng)
	// Deliberately poor starting point: both components centred, too wide.
	m := &Model{Weights: []float64{0.5, 0.5}, Means: []float64{-0.5, 0.5}, Sigmas: []float64{5, 5}}
	tr := NewSGDTrainer(m, 0.05)
	before := m.NLL(xs)
	for e := 0; e < 20; e++ {
		for s := 0; s < len(xs); s += 200 {
			end := s + 200
			if end > len(xs) {
				end = len(xs)
			}
			tr.Step(xs[s:end])
		}
	}
	after := m.NLL(xs)
	if after >= before {
		t.Fatalf("SGD did not decrease NLL: %v -> %v", before, after)
	}
}

func TestSGDGradientMatchesFiniteDifference(t *testing.T) {
	// Verify the analytic NLL gradient against central finite differences on
	// a tiny fixed batch.
	batch := []float64{-1.3, 0.2, 2.7}
	base := &Model{
		Weights: []float64{0.3, 0.7},
		Means:   []float64{-1, 2},
		Sigmas:  []float64{0.8, 1.3},
	}
	nllOf := func(logits, means, logSig []float64) float64 {
		m := &Model{
			Weights: make([]float64, 2),
			Means:   append([]float64(nil), means...),
			Sigmas:  []float64{math.Exp(logSig[0]), math.Exp(logSig[1])},
		}
		vecmath.Softmax(m.Weights, logits)
		return m.NLL(batch)
	}
	logits := []float64{math.Log(0.3), math.Log(0.7)}
	means := []float64{-1, 2}
	logSig := []float64{math.Log(0.8), math.Log(1.3)}

	// Analytic gradients, replicated from SGDTrainer.Step.
	k := 2
	gW := make([]float64, k)
	gMu := make([]float64, k)
	gSig := make([]float64, k)
	buf := make([]float64, k)
	for _, x := range batch {
		base.logJoint(x, buf)
		lse := vecmath.LogSumExp(buf)
		for j := 0; j < k; j++ {
			r := math.Exp(buf[j] - lse)
			gW[j] += base.Weights[j] - r
			sig := base.Sigmas[j]
			d := (x - base.Means[j]) / sig
			gMu[j] -= r * d / sig
			gSig[j] -= r * (d*d - 1)
		}
	}
	inv := 1 / float64(len(batch))
	vecmath.Scale(inv, gW)
	vecmath.Scale(inv, gMu)
	vecmath.Scale(inv, gSig)

	const h = 1e-6
	check := func(name string, params []float64, analytic []float64) {
		for j := range params {
			orig := params[j]
			params[j] = orig + h
			up := nllOf(logits, means, logSig)
			params[j] = orig - h
			down := nllOf(logits, means, logSig)
			params[j] = orig
			fd := (up - down) / (2 * h)
			if math.Abs(fd-analytic[j]) > 1e-5 {
				t.Fatalf("%s[%d]: analytic %v vs finite-diff %v", name, j, analytic[j], fd)
			}
		}
	}
	check("logits", logits, gW)
	check("means", means, gMu)
	check("logSig", logSig, gSig)
}

func TestAssignSeparatesClusters(t *testing.T) {
	m := &Model{
		Weights: []float64{0.5, 0.5},
		Means:   []float64{-4, 4},
		Sigmas:  []float64{1, 1},
	}
	if m.Assign(-3.5) != 0 || m.Assign(3.9) != 1 {
		t.Fatal("assignment does not follow nearest component")
	}
	// Weighted tie-break: heavier component wins at the midpoint.
	m2 := &Model{Weights: []float64{0.9, 0.1}, Means: []float64{-1, 1}, Sigmas: []float64{1, 1}}
	if m2.Assign(0) != 0 {
		t.Fatal("weight should break the midpoint tie")
	}
}

func TestResponsibilitiesSumToOneProperty(t *testing.T) {
	m := &Model{
		Weights: []float64{0.2, 0.5, 0.3},
		Means:   []float64{-2, 0, 5},
		Sigmas:  []float64{0.5, 1, 2},
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		x = math.Mod(x, 100)
		out := make([]float64, 3)
		m.Responsibilities(x, out)
		var s float64
		for _, r := range out {
			if r < 0 || r > 1 {
				return false
			}
			s += r
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeMassExactVsMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := &Model{
		Weights: []float64{0.6, 0.4},
		Means:   []float64{0, 10},
		Sigmas:  []float64{1, 2},
	}
	rs := NewRangeSampler(20000, rng)
	exact := make([]float64, 2)
	mc := make([]float64, 2)
	for _, r := range [][2]float64{{-1, 1}, {8, 12}, {-100, 100}, {5, 5.5}} {
		m.RangeMassExact(r[0], r[1], exact)
		rs.Mass(m, r[0], r[1], mc)
		for k := 0; k < 2; k++ {
			if math.Abs(exact[k]-mc[k]) > 0.02 {
				t.Fatalf("range [%v,%v] comp %d: exact %v vs MC %v", r[0], r[1], k, exact[k], mc[k])
			}
		}
	}
}

// TestRangeSamplerCountsStandardizedDraws: one shared set serves every
// component, and component k's mass is the fraction of draws z inside the
// standardized interval [(lo−μ_k)/σ_k, (hi−μ_k)/σ_k], counted here by brute
// force against the sampler's binary searches.
func TestRangeSamplerCountsStandardizedDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := &Model{
		Weights: []float64{0.2, 0.3, 0.5},
		Means:   []float64{-4, 0, 7.5},
		Sigmas:  []float64{0.5, 1, 3},
	}
	rs := NewRangeSampler(5000, rng)
	out := make([]float64, m.K())
	for _, r := range [][2]float64{{-5, -3}, {-1, 1}, {0, 0}, {2, 1}, {math.Inf(-1), 0}, {6, math.Inf(1)}, {math.Inf(-1), math.Inf(1)}} {
		rs.Mass(m, r[0], r[1], out)
		for k := range out {
			zlo, zhi := (r[0]-m.Means[k])/m.Sigmas[k], (r[1]-m.Means[k])/m.Sigmas[k]
			n := 0
			for _, z := range rs.z {
				if z >= zlo && z <= zhi {
					n++
				}
			}
			if want := float64(n) / float64(len(rs.z)); out[k] != want {
				t.Fatalf("range %v comp %d: mass %v, brute-force count %v", r, k, out[k], want)
			}
		}
	}
}

func TestRangeMassFullDomainIsOne(t *testing.T) {
	m := &Model{Weights: []float64{1}, Means: []float64{3}, Sigmas: []float64{2}}
	out := make([]float64, 1)
	m.RangeMassExact(math.Inf(-1), math.Inf(1), out)
	if math.Abs(out[0]-1) > 1e-12 {
		t.Fatalf("full-domain mass = %v", out[0])
	}
	m.RangeMassExact(5, 1, out)
	if out[0] != 0 {
		t.Fatalf("reversed range mass = %v", out[0])
	}
}

func TestEmpiricalMassExactFractions(t *testing.T) {
	m := &Model{
		Weights: []float64{0.5, 0.5},
		Means:   []float64{0, 100},
		Sigmas:  []float64{1, 1},
	}
	values := []float64{-1, 0, 1, 99, 100, 101, 102}
	e := NewEmpirical(m, values)
	out := make([]float64, 2)
	e.Mass(0, 100, out)
	// Component 0 holds {-1,0,1}: 2 of 3 in [0,100]. Component 1 holds
	// {99,100,101,102}: 2 of 4.
	if math.Abs(out[0]-2.0/3) > 1e-12 || math.Abs(out[1]-0.5) > 1e-12 {
		t.Fatalf("empirical mass = %v", out)
	}
}

func TestSelectKFindsClusterCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Three well-separated clusters.
	xs := make([]float64, 3000)
	for i := range xs {
		c := rng.Intn(3)
		xs[i] = float64(c*10) + rng.NormFloat64()*0.4
	}
	k := SelectK(xs, 10, 2000, rng)
	if k < 3 || k > 6 {
		t.Fatalf("SelectK = %d, want ≈3 for 3 clusters", k)
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := &Model{Weights: []float64{0.3, 0.7}, Means: []float64{-5, 5}, Sigmas: []float64{1, 1}}
	var left int
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Sample(rng) < 0 {
			left++
		}
	}
	frac := float64(left) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("left fraction = %v, want ≈0.3", frac)
	}
}

func TestNLLMatchesPDF(t *testing.T) {
	m := &Model{Weights: []float64{0.4, 0.6}, Means: []float64{1, 2}, Sigmas: []float64{0.5, 0.7}}
	xs := []float64{0.5, 1.5, 3}
	var want float64
	for _, x := range xs {
		want -= math.Log(m.PDF(x))
	}
	want /= float64(len(xs))
	if got := m.NLL(xs); math.Abs(got-want) > 1e-9 {
		t.Fatalf("NLL = %v, want %v", got, want)
	}
}

func TestInitKMeansPPDegenerateData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 100) // all zeros
	m := initKPP(t, xs, 4, rng)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range m.Sigmas {
		if s <= 0 {
			t.Fatalf("degenerate sigma %v", s)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	m := &Model{Weights: make([]float64, 30), Means: make([]float64, 30), Sigmas: make([]float64, 30)}
	if got := m.SizeBytes(); got != 720 {
		t.Fatalf("size = %d, want 720", got)
	}
}
