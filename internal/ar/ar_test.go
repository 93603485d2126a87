package ar

import (
	"math"
	"math/rand"
	"testing"

	"iam/internal/dataset"
	"iam/internal/nn"
)

// trainedModel returns a small AR model fitted to a correlated 3-column
// distribution, plus the training rows.
func trainedModel(t *testing.T) (*Model, [][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	n := 4000
	rows := make([][]int, n)
	for i := range rows {
		a := rng.Intn(4)
		b := (a + rng.Intn(2)) % 4
		c := (b * 2) % 5
		if rng.Float64() < 0.2 {
			c = rng.Intn(5)
		}
		rows[i] = []int{a, b, c}
	}
	m, err := New([]int{4, 4, 5}, []int{24, 24}, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(rows, nn.TrainConfig{Epochs: 20, BatchSize: 128, LR: 5e-3, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	return m, rows
}

// est runs one query through EstimateBatchScratch with the given seed and
// fails the test on error.
func est(t *testing.T, m *Model, sess *nn.Session, cons []Constraint, s int, seed int64) float64 {
	t.Helper()
	v, err := m.EstimateBatchScratch(sess, NewEstimateScratch(), [][]Constraint{cons}, s, []int64{seed})
	if err != nil {
		t.Fatal(err)
	}
	return v[0]
}

func mustSpec(t *testing.T, card, base int) dataset.FactorSpec {
	t.Helper()
	spec, err := dataset.NewFactorSpec(card, base)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// exactModelProb enumerates Σ_{t ∈ R} Π_i P̂(t_i | t_<i) by brute force —
// the quantity progressive sampling estimates.
func exactModelProb(m *Model, ranges [][2]int) float64 {
	sess := m.Net.NewSession(1)
	nCols := len(m.Cards)
	row := make([]int, nCols)
	var rec func(col int, acc float64) float64
	rec = func(col int, acc float64) float64 {
		if col == nCols {
			return acc
		}
		// Inputs of later columns are irrelevant (MADE), fill MASK.
		in := make([]int, nCols)
		copy(in, row[:col])
		for c := col; c < nCols; c++ {
			in[c] = m.Net.MaskToken(c)
		}
		sess.Forward([][]int{in})
		dist := make([]float64, m.Cards[col])
		sess.Dist(0, col, dist)
		var total float64
		for code := ranges[col][0]; code <= ranges[col][1]; code++ {
			row[col] = code
			total += rec(col+1, acc*dist[code])
		}
		return total
	}
	return rec(0, 1)
}

func TestProgressiveSamplingMatchesExactEnumeration(t *testing.T) {
	m, _ := trainedModel(t)
	ranges := [][2]int{{1, 2}, {0, 3}, {2, 4}}
	exact := exactModelProb(m, ranges)

	cons := []Constraint{
		RangeConstraint{1, 2},
		RangeConstraint{0, 3},
		RangeConstraint{2, 4},
	}
	sess := m.Net.NewSession(4000)
	got := est(t, m, sess, cons, 4000, 4)
	if math.Abs(got-exact) > 0.02+0.05*exact {
		t.Fatalf("progressive sampling %v vs exact %v", got, exact)
	}
}

func TestProgressiveSamplingUnbiasedAcrossSeeds(t *testing.T) {
	// Average of many independent low-sample estimates must approach the
	// exact value (unbiasedness, paper §3 / Theorem 5.1 case 1).
	m, _ := trainedModel(t)
	ranges := [][2]int{{0, 1}, {1, 3}, {0, 4}}
	exact := exactModelProb(m, ranges)
	cons := []Constraint{
		RangeConstraint{0, 1},
		RangeConstraint{1, 3},
		RangeConstraint{0, 4},
	}
	sess := m.Net.NewSession(64)
	var sum float64
	const reps = 60
	for i := 0; i < reps; i++ {
		sum += est(t, m, sess, cons, 64, int64(100+i))
	}
	mean := sum / reps
	if math.Abs(mean-exact) > 0.02+0.05*exact {
		t.Fatalf("mean of low-sample estimates %v vs exact %v", mean, exact)
	}
}

func TestWildcardSkippedColumn(t *testing.T) {
	m, rows := trainedModel(t)
	// Query constrains only column 1; column 0 and 2 are wildcards.
	cons := []Constraint{nil, RangeConstraint{0, 1}, nil}
	sess := m.Net.NewSession(2000)
	got := est(t, m, sess, cons, 2000, 5)

	// Data frequency of b ∈ {0,1}.
	count := 0
	for _, r := range rows {
		if r[1] <= 1 {
			count++
		}
	}
	want := float64(count) / float64(len(rows))
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("wildcard estimate %v vs data frequency %v", got, want)
	}
}

func TestEmptyConstraintGivesZero(t *testing.T) {
	m, _ := trainedModel(t)
	cons := []Constraint{EmptyConstraint{}, nil, nil}
	sess := m.Net.NewSession(100)
	if got := est(t, m, sess, cons, 100, 6); got != 0 {
		t.Fatalf("empty constraint estimate = %v, want 0", got)
	}
}

func TestEstimateBatchMatchesSingles(t *testing.T) {
	m, _ := trainedModel(t)
	consList := [][]Constraint{
		{RangeConstraint{0, 1}, nil, RangeConstraint{0, 2}},
		{nil, RangeConstraint{2, 3}, nil},
		{RangeConstraint{1, 3}, RangeConstraint{0, 3}, RangeConstraint{1, 4}},
	}
	const s = 1500
	sess := m.Net.NewSession(len(consList) * s)
	batch, err := m.EstimateBatchScratch(sess, NewEstimateScratch(), consList, s, []int64{7, 8, 9})
	if err != nil {
		t.Fatal(err)
	}

	for i, cons := range consList {
		single := est(t, m, sess, cons, s, int64(70+i))
		if math.Abs(batch[i]-single) > 0.03+0.1*single {
			t.Fatalf("query %d: batch %v vs single %v", i, batch[i], single)
		}
	}
}

func TestWeightConstraint(t *testing.T) {
	m, _ := trainedModel(t)
	// A weight vector of all ones behaves like the full range.
	ones := make([]float64, 4)
	for i := range ones {
		ones[i] = 1
	}
	consW := []Constraint{WeightConstraint{ones}, RangeConstraint{0, 3}, RangeConstraint{0, 4}}
	consR := []Constraint{RangeConstraint{0, 3}, RangeConstraint{0, 3}, RangeConstraint{0, 4}}
	sess := m.Net.NewSession(3000)
	a := est(t, m, sess, consW, 3000, 8)
	b := est(t, m, sess, consR, 3000, 9)
	if math.Abs(a-b) > 0.05 {
		t.Fatalf("weight-of-ones %v vs full range %v", a, b)
	}
	if math.Abs(a-1) > 0.05 {
		t.Fatalf("unconstrained estimate %v, want ≈1", a)
	}
}

func TestFactoredConstraintFill(t *testing.T) {
	spec := mustSpec(t, 100, 10) // digits base 10: code = 10·d0 + d1
	// Range [23, 57]: d0 ∈ [2,5]; d1 depends on d0.
	fc0 := FactoredConstraint{Spec: spec, Part: 0, FirstCol: 0, Lo: 23, Hi: 57}
	w0 := make([]float64, spec.Bases[0])
	fc0.Fill([]int{0, 0}, w0)
	for k, v := range w0 {
		want := 0.0
		if k >= 2 && k <= 5 {
			want = 1
		}
		if v != want {
			t.Fatalf("part0 weight[%d] = %v, want %v", k, v, want)
		}
	}
	fc1 := FactoredConstraint{Spec: spec, Part: 1, FirstCol: 0, Lo: 23, Hi: 57}
	w1 := make([]float64, spec.Bases[1])
	cases := []struct {
		d0     int
		lo, hi int
	}{
		{2, 3, 9}, // on the low edge
		{3, 0, 9}, // strictly inside
		{5, 0, 7}, // on the high edge
	}
	for _, c := range cases {
		fc1.Fill([]int{c.d0, 0}, w1)
		for k, v := range w1 {
			want := 0.0
			if k >= c.lo && k <= c.hi {
				want = 1
			}
			if v != want {
				t.Fatalf("d0=%d: part1 weight[%d] = %v, want %v", c.d0, k, v, want)
			}
		}
	}
}

func TestFactoredConstraintSingleDigitRange(t *testing.T) {
	spec := mustSpec(t, 100, 10)
	// Range [44, 46] stays within one MSB digit.
	fc1 := FactoredConstraint{Spec: spec, Part: 1, FirstCol: 0, Lo: 44, Hi: 46}
	w := make([]float64, 10)
	fc1.Fill([]int{4, 0}, w)
	for k, v := range w {
		want := 0.0
		if k >= 4 && k <= 6 {
			want = 1
		}
		if v != want {
			t.Fatalf("weight[%d] = %v, want %v", k, v, want)
		}
	}
}

// TestFactoredSamplingMatchesUnfactored trains two models on the same data —
// one on the raw column, one with the column factored into two subcolumns —
// and checks their range estimates agree.
func TestFactoredSamplingMatchesUnfactored(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 5000
	const card = 64
	spec := mustSpec(t, card, 8)
	raw := make([][]int, n)
	fac := make([][]int, n)
	for i := range raw {
		a := rng.Intn(3)
		// v clusters around a·20 with noise.
		v := a*20 + rng.Intn(12)
		raw[i] = []int{a, v}
		d := spec.Split(v)
		fac[i] = []int{a, d[0], d[1]}
	}

	mRaw, err := New([]int{3, card}, []int{32, 32}, 16, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mRaw.Fit(raw, nn.TrainConfig{Epochs: 10, BatchSize: 128, LR: 5e-3, Seed: 12}); err != nil {
		t.Fatal(err)
	}

	mFac, err := New([]int{3, spec.Bases[0], spec.Bases[1]}, []int{32, 32}, 16, 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mFac.Fit(fac, nn.TrainConfig{Epochs: 10, BatchSize: 128, LR: 5e-3, Seed: 14}); err != nil {
		t.Fatal(err)
	}

	lo, hi := 15, 40
	trueCount := 0
	for _, r := range raw {
		if r[1] >= lo && r[1] <= hi {
			trueCount++
		}
	}
	want := float64(trueCount) / float64(n)

	sessRaw := mRaw.Net.NewSession(2000)
	gotRaw := est(t, mRaw, sessRaw,
		[]Constraint{nil, RangeConstraint{lo, hi}}, 2000, 15)
	sessFac := mFac.Net.NewSession(2000)
	gotFac := est(t, mFac, sessFac,
		[]Constraint{
			nil,
			FactoredConstraint{Spec: spec, Part: 0, FirstCol: 1, Lo: lo, Hi: hi},
			FactoredConstraint{Spec: spec, Part: 1, FirstCol: 1, Lo: lo, Hi: hi},
		}, 2000, 16)

	if math.Abs(gotRaw-want) > 0.08 {
		t.Fatalf("raw model estimate %v vs data %v", gotRaw, want)
	}
	if math.Abs(gotFac-want) > 0.08 {
		t.Fatalf("factored model estimate %v vs data %v", gotFac, want)
	}
}

func TestTupleProb(t *testing.T) {
	m, rows := trainedModel(t)
	sess := m.Net.NewSession(1)
	// Point probabilities must be in (0, 1] and frequent tuples should get
	// higher probability than never-seen ones.
	freq := map[[3]int]int{}
	for _, r := range rows {
		freq[[3]int{r[0], r[1], r[2]}]++
	}
	var common, rare [3]int
	best := -1
	for k, c := range freq {
		if c > best {
			best, common = c, k
		}
	}
	rare = [3]int{3, 0, 1}
	if freq[rare] > best/10 {
		rare = [3]int{0, 3, 4}
	}
	pc := m.TupleProb(sess, common[:])
	pr := m.TupleProb(sess, rare[:])
	if pc <= 0 || pc > 1 || pr < 0 || pr > 1 {
		t.Fatalf("probabilities out of range: %v, %v", pc, pr)
	}
	if pc <= pr {
		t.Fatalf("common tuple prob %v not above rare tuple prob %v", pc, pr)
	}
}
