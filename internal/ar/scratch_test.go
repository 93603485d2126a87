package ar

import (
	"math"
	"math/rand"
	"testing"

	"iam/internal/vecmath"
)

// freshModel builds an untrained model (initialization is deterministic, which
// is all the plumbing tests here need).
func freshModel(t *testing.T, cards []int) *Model {
	t.Helper()
	m, err := New(cards, []int{16, 16}, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDeadSamplesNotForwarded: a query that dies at the first column (empty
// constraint) must not have its sample rows forwarded through the network for
// the remaining columns.
func TestDeadSamplesNotForwarded(t *testing.T) {
	m := freshModel(t, []int{4, 4, 5})
	ns := 32
	consLive := []Constraint{RangeConstraint{0, 2}, RangeConstraint{1, 3}, RangeConstraint{0, 4}}
	consDead := []Constraint{EmptyConstraint{}, RangeConstraint{1, 3}, RangeConstraint{0, 4}}

	sess := m.Net.NewSession(2 * ns)
	sc := NewEstimateScratch()

	// Alone, the dead query forwards only column 0's single empty-prefix
	// row: all its samples die there and are never forwarded again.
	before := sess.ForwardedRows()
	if _, err := m.EstimateBatchScratch(sess, sc, [][]Constraint{consDead}, ns, []int64{9}); err != nil {
		t.Fatal(err)
	}
	if got := sess.ForwardedRows() - before; got != 1 {
		t.Fatalf("dead query alone forwarded %d rows, want 1 (dead samples must be skipped)", got)
	}

	// Beside a live query, the batch forwards exactly the live query's
	// distinct prefixes: the dead samples add no row at columns 1 and 2.
	consList := [][]Constraint{consLive, consDead}
	before = sess.ForwardedRows()
	if _, err := m.EstimateBatchScratch(sess, sc, consList, ns, []int64{9, 10}); err != nil {
		t.Fatal(err)
	}
	got := sess.ForwardedRows() - before
	for s := 0; s < ns; s++ {
		if row := sc.rows[ns+s]; row[1] != m.Net.MaskToken(1) || row[2] != m.Net.MaskToken(2) {
			t.Fatalf("dead sample %d was sampled past column 0: %v", s, row)
		}
	}
	want := distinctPrefixRows(m, consList, sc.rows, ns)
	if wantLive := distinctPrefixRows(m, consList[:1], sc.rows, ns); want != wantLive {
		t.Fatalf("dead query contributes %d distinct prefixes", want-wantLive)
	}
	if got != want {
		t.Fatalf("forwarded %d rows, want %d (dead samples must be skipped)", got, want)
	}
}

// TestPickCategoricalBsearchMatchesLinear proves the draw over the prefix
// sums — a scan for small domains, binary search past bsearchMinCard — picks
// the same index as a running sum of the weights for every threshold,
// including zero-mass plateaus and thresholds at or past the total mass.
func TestPickCategoricalBsearchMatchesLinear(t *testing.T) {
	linear := func(d []float64, u float64) int {
		var acc float64
		pick := len(d) - 1
		for k := range d {
			acc += d[k]
			if u < acc {
				pick = k
				break
			}
		}
		return pick
	}
	rng := rand.New(rand.NewSource(17))
	for _, card := range []int{1, 5, 64, 65, 100, 513} {
		d := make([]float64, card)
		cdf := make([]float64, card)
		var mass float64
		for k := range d {
			if rng.Intn(3) == 0 {
				d[k] = 0 // plateau: consecutive equal prefix sums
			} else {
				d[k] = rng.Float64()
			}
			mass += d[k]
			cdf[k] = mass
		}
		for trial := 0; trial < 2000; trial++ {
			u := rng.Float64() * mass
			if got, want := pickCategorical(cdf, u), linear(d, u); got != want {
				t.Fatalf("card %d: pickCategorical(u=%v) = %d, linear scan picks %d", card, u, got, want)
			}
		}
		for _, u := range []float64{0, cdf[card-1], cdf[card-1] * 1.0000001} {
			if got, want := pickCategorical(cdf, u), linear(d, u); got != want {
				t.Fatalf("card %d: edge u=%v: bsearch %d vs linear %d", card, u, got, want)
			}
		}
	}
}

// TestLargeCardSameSeedIdenticalPicks is the end-to-end regression for the
// binary-search draw: on a model with a column wide enough to take the
// bsearch path, two same-seed runs must produce bit-identical estimates (the
// draw consumes exactly one uniform per pick, same as the linear scan did).
func TestLargeCardSameSeedIdenticalPicks(t *testing.T) {
	m := freshModel(t, []int{100, 6})
	cons := [][]Constraint{
		{RangeConstraint{10, 80}, RangeConstraint{1, 4}},
		{RangeConstraint{0, 99}, nil},
	}
	sess := m.Net.NewSession(2 * 64)
	seeds := []int64{23, 24}
	a, err := m.EstimateBatchScratch(sess, NewEstimateScratch(), cons, 64, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.EstimateBatchScratch(sess, NewEstimateScratch(), cons, 64, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("query %d: same-seed runs differ: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestScratchBatchCompositionIndependent: with per-query seeds, a query's
// estimate must not depend on which other queries share its batch.
func TestScratchBatchCompositionIndependent(t *testing.T) {
	m := freshModel(t, []int{4, 4, 5})
	q0 := []Constraint{RangeConstraint{0, 1}, RangeConstraint{2, 3}, nil}
	q1 := []Constraint{nil, RangeConstraint{0, 3}, RangeConstraint{1, 4}}
	q2 := []Constraint{RangeConstraint{3, 3}, nil, RangeConstraint{0, 2}}
	ns := 64
	sess := m.Net.NewSession(3 * ns)
	sc := NewEstimateScratch()

	batched, err := m.EstimateBatchScratch(sess, sc, [][]Constraint{q0, q1, q2}, ns, []int64{101, 102, 103})
	if err != nil {
		t.Fatal(err)
	}
	all := append([]float64(nil), batched...)
	for i, q := range [][]Constraint{q0, q1, q2} {
		solo, err := m.EstimateBatchScratch(sess, sc, [][]Constraint{q}, ns, []int64{101 + int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(solo[0]) != math.Float64bits(all[i]) {
			t.Fatalf("query %d: solo %v vs batched %v — per-query streams must decouple batch composition", i, solo[0], all[i])
		}
	}
}

// TestEstimateBatchScratchNoAlloc pins the tentpole property: after warm-up,
// the scratch estimate path performs zero heap allocations per call. The
// batch spans three constrained-prefix patterns at column 2 and its samples
// collide on a handful of prefixes, so the dedup table and the per-(query,
// row) memo are on the measured path.
func TestEstimateBatchScratchNoAlloc(t *testing.T) {
	prev := vecmath.Parallelism(1)
	defer vecmath.Parallelism(prev)

	m := freshModel(t, []int{4, 16, 5})
	wts := make([]float64, 16)
	for i := range wts {
		wts[i] = float64(i%3) / 2
	}
	consList := [][]Constraint{
		{RangeConstraint{1, 2}, WeightConstraint{W: wts}, nil},
		{nil, RangeConstraint{3, 12}, RangeConstraint{0, 4}},
		{RangeConstraint{0, 3}, nil, RangeConstraint{1, 3}},
		{RangeConstraint{0, 1}, RangeConstraint{2, 5}, RangeConstraint{0, 2}},
		{RangeConstraint{2, 3}, nil, WeightConstraint{W: wts[:5]}},
	}
	seeds := []int64{11, 12, 13, 14, 15}
	ns := 64
	sess := m.Net.NewSession(len(consList) * ns)
	sc := NewEstimateScratch()
	before := sess.ForwardedRows()
	if _, err := m.EstimateBatchScratch(sess, sc, consList, ns, seeds); err != nil {
		t.Fatal(err)
	}
	// Heavy collisions: 11 constrained (query, column) pairs of 64 samples
	// each, over prefixes of at most 4·16 codes.
	if fwd := sess.ForwardedRows() - before; fwd*4 > 11*ns {
		t.Fatalf("forwarded %d rows; the batch should collide on far fewer prefixes", fwd)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := m.EstimateBatchScratch(sess, sc, consList, ns, seeds); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0 {
		t.Fatalf("steady-state EstimateBatchScratch allocates %v per op, want 0", n)
	}
}

// TestScratchReuseAcrossShapes: one scratch must serve growing and shrinking
// workloads (buffers grow monotonically, slices re-aim correctly).
func TestScratchReuseAcrossShapes(t *testing.T) {
	m := freshModel(t, []int{4, 4, 5})
	sc := NewEstimateScratch()
	sess := m.Net.NewSession(8 * 64)
	q := []Constraint{RangeConstraint{0, 2}, nil, RangeConstraint{1, 3}}
	for _, nq := range []int{1, 8, 2, 5} {
		consList := make([][]Constraint, nq)
		seeds := make([]int64, nq)
		for i := range consList {
			consList[i] = q
			seeds[i] = int64(200 + i)
		}
		got, err := m.EstimateBatchScratch(sess, sc, consList, 64, seeds)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != nq {
			t.Fatalf("nq=%d: got %d estimates", nq, len(got))
		}
		for i, v := range got {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("nq=%d query %d: estimate %v out of range", nq, i, v)
			}
		}
	}
}

// TestWideSchemaNoAlloc runs the sampler on a 260-column schema, whose
// prefix dedup keys rows on up to 259 codes: same-seed runs must be
// bit-identical, the steady state must not allocate, and a query
// constraining the first, a middle and the last column must match exact
// enumeration within four standard errors.
func TestWideSchemaNoAlloc(t *testing.T) {
	prev := vecmath.Parallelism(1)
	defer vecmath.Parallelism(prev)

	const nCols, ns = 260, 256
	cards := make([]int, nCols)
	for c := range cards {
		cards[c] = 2
	}
	m, err := New(cards, []int{4, 4}, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	spread := make([]Constraint, nCols)
	spread[0] = WeightConstraint{W: []float64{0.3, 0.9}}
	spread[130] = WeightConstraint{W: []float64{1, 0.2}}
	spread[259] = RangeConstraint{1, 1}
	dense := make([]Constraint, nCols)
	for c := 60; c < nCols; c += 7 {
		dense[c] = RangeConstraint{0, c % 2}
	}
	consList := [][]Constraint{spread, dense}
	seeds := []int64{41, 42}
	sess := m.Net.NewSession(len(consList) * ns)
	sc := NewEstimateScratch()

	first, err := m.EstimateBatchScratch(sess, sc, consList, ns, seeds)
	if err != nil {
		t.Fatal(err)
	}
	first = append([]float64(nil), first...)
	se := math.Sqrt(sc.Variances()[0])
	again, err := m.EstimateBatchScratch(sess, NewEstimateScratch(), consList, ns, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for qi := range first {
		if math.Float64bits(first[qi]) != math.Float64bits(again[qi]) {
			t.Fatalf("query %d: same-seed runs differ: %v vs %v", qi, first[qi], again[qi])
		}
	}

	exact, ok := m.EstimateExhaustive(spread, 16)
	if !ok {
		t.Fatal("enumeration infeasible")
	}
	if se == 0 || math.Abs(first[0]-exact) > 4*se+1e-9 {
		t.Fatalf("sampled %v ± %v, exact %v", first[0], se, exact)
	}

	n := testing.AllocsPerRun(5, func() {
		if _, err := m.EstimateBatchScratch(sess, sc, consList, ns, seeds); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0 {
		t.Fatalf("steady-state wide-schema estimate allocates %v per op, want 0", n)
	}
}
