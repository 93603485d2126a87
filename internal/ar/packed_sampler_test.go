package ar

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// distinctPrefixRows counts, from the final sample rows of a run, the rows
// the deduplicating sampler must forward: per column c, the distinct
// (constrained prefix, codes on that prefix) pairs over the samples still
// live at c — the codes on every column < c, since each column a query
// skips holds its MASK token. A sample was live at c exactly when its query
// constrains c and row[c] left the MASK token — a pick, or the 0 written
// where it died; a sample dead before c keeps MASK there.
func distinctPrefixRows(m *Model, consList [][]Constraint, rows [][]int, ns int) int {
	n := 0
	for c := range m.Cards {
		seen := map[string]bool{}
		for qi, cons := range consList {
			if cons[c] == nil {
				continue
			}
			for s := 0; s < ns; s++ {
				row := rows[qi*ns+s]
				if row[c] == m.Net.MaskToken(c) {
					continue
				}
				key := ""
				for k := 0; k < c; k++ {
					if cons[k] != nil {
						key += fmt.Sprintf("%d:%d,", k, row[k])
					}
				}
				seen[key] = true
			}
		}
		n += len(seen)
	}
	return n
}

// TestPackedGroupingSharesForwards pins the sampler's forward accounting:
// each column forwards one row per distinct (constrained prefix, prefix
// codes) pair, shared across the samples and queries that hold it. Columns
// with an empty constrained prefix therefore forward one row for the whole
// batch.
func TestPackedGroupingSharesForwards(t *testing.T) {
	m := freshModel(t, []int{4, 4, 5})
	ns := 16
	consList := [][]Constraint{
		{RangeConstraint{0, 2}, nil, RangeConstraint{0, 3}},
		{RangeConstraint{1, 3}, nil, RangeConstraint{1, 4}},
		{nil, RangeConstraint{0, 2}, RangeConstraint{0, 4}},
	}
	sess := m.Net.NewSession(3 * ns)
	sc := NewEstimateScratch()
	before := sess.ForwardedRows()
	if _, err := m.EstimateBatchScratch(sess, sc, consList, ns, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := sess.ForwardedRows() - before
	// Column 0: queries 0,1 share the empty prefix — one row. Column 1:
	// query 2's prefix is still empty (it skipped column 0) — one row.
	// Column 2: queries 0,1 share the constrained prefix {0} and forward
	// one row per distinct column-0 code among their samples; query 2
	// (prefix {1}) one per distinct column-1 code.
	want := distinctPrefixRows(m, consList, sc.rows, ns)
	if got != want {
		t.Fatalf("forwarded %d rows, want %d (prefix groups must share forwards)", got, want)
	}
	if want > 1+1+4+3 {
		t.Fatalf("%d distinct prefixes exceed the 9 the domains allow", want)
	}
}

// TestPackedPlanCacheReusedAcrossCalls: repeating a workload on the same
// session must not rebuild the sampling forward's first-layer table — it
// keys on the network's parameter generation, unchanged between calls — and
// answers stay bit-identical. A parameter edit between calls (the output
// bias UAE and the mass calibration write) must rebuild it exactly once.
func TestPackedPlanCacheReusedAcrossCalls(t *testing.T) {
	m := freshModel(t, []int{4, 4, 5})
	consList := [][]Constraint{
		{RangeConstraint{0, 2}, nil, RangeConstraint{0, 3}},
		{nil, RangeConstraint{1, 2}, RangeConstraint{2, 4}},
	}
	sess := m.Net.NewSession(16)
	sc := NewEstimateScratch()
	seeds := []int64{11, 12}
	first, err := m.EstimateBatchScratch(sess, sc, consList, 8, seeds)
	if err != nil {
		t.Fatal(err)
	}
	first = append([]float64(nil), first...)
	if sess.TableBuilds() != 1 {
		t.Fatalf("first call built the table %d times, want 1", sess.TableBuilds())
	}
	again, err := m.EstimateBatchScratch(sess, sc, consList, 8, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if n := sess.TableBuilds(); n != 1 {
		t.Fatalf("table rebuilt across identical calls: %d builds, want 1", n)
	}
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(again[i]) {
			t.Fatalf("query %d: %v then %v on a reused table", i, first[i], again[i])
		}
	}
	if err := m.Net.SetOutputBias(2, []float64{0.5, -0.5, 0, 1, -1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EstimateBatchScratch(sess, sc, consList, 8, seeds); err != nil {
		t.Fatal(err)
	}
	if n := sess.TableBuilds(); n != 2 {
		t.Fatalf("%d table builds after a parameter edit, want 2", n)
	}
}

// TestSamplerMatchesEnumeration checks the sampler against an exact
// oracle: on a trained 3-column model and on the 4-column model with a
// factored column, every estimate at S=2048 must lie within four of its own
// standard errors of exact enumeration (EstimateExhaustive), and of the
// brute-force exactModelProb where every column carries a plain range.
func TestSamplerMatchesEnumeration(t *testing.T) {
	const ns = 2048
	trained, _ := trainedModel(t)
	wide, fc := dedupModel(t)
	factored := func(lo, hi int) (Constraint, Constraint) {
		f0, f1 := fc, fc
		f0.Part, f0.Lo, f0.Hi = 0, lo, hi
		f1.Part, f1.Lo, f1.Hi = 1, lo, hi
		return f0, f1
	}
	f0, f1 := factored(4, 22)
	g0, g1 := factored(13, 13)
	cases := []struct {
		m      *Model
		cons   [][]Constraint
		ranges [][][2]int // exactModelProb bounds per query; nil = not applicable
	}{
		{trained, [][]Constraint{
			{RangeConstraint{1, 2}, RangeConstraint{0, 3}, RangeConstraint{2, 4}},
			{RangeConstraint{0, 0}, RangeConstraint{1, 3}, RangeConstraint{0, 1}},
			{nil, RangeConstraint{0, 1}, nil},
			{RangeConstraint{0, 2}, nil, RangeConstraint{1, 3}},
			{WeightConstraint{W: []float64{0.2, 1, 0.5, 0}}, nil, RangeConstraint{1, 3}},
			{nil, WeightConstraint{W: []float64{1, 0, 0.7, 0.1}}, WeightConstraint{W: []float64{0.3, 0.3, 1, 0, 0.9}}},
			{RangeConstraint{3, 3}, WeightConstraint{W: []float64{0.5, 0.5, 0.5, 0.5}}, RangeConstraint{0, 4}},
			{EmptyConstraint{}, nil, RangeConstraint{0, 4}},
		}, [][][2]int{{{1, 2}, {0, 3}, {2, 4}}, {{0, 0}, {1, 3}, {0, 1}}, nil, nil, nil, nil, nil, nil}},
		{wide, [][]Constraint{
			{f0, f1, nil, nil},
			{f0, f1, RangeConstraint{1, 2}, WeightConstraint{W: []float64{1, 0, 0.4, 0.8, 0, 1, 0.2}}},
			{g0, g1, nil, RangeConstraint{0, 3}},
			{nil, nil, WeightConstraint{W: []float64{0.1, 0.9, 0.5, 1}}, RangeConstraint{2, 6}},
		}, nil},
	}
	sampled := 0
	for mi, tc := range cases {
		sess := tc.m.Net.NewSession(len(tc.cons) * ns)
		seeds := make([]int64, len(tc.cons))
		for i := range seeds {
			seeds[i] = int64(500 + 10*mi + i)
		}
		sc := NewEstimateScratch()
		ests, err := tc.m.EstimateBatchScratch(sess, sc, tc.cons, ns, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for qi, cons := range tc.cons {
			got, se := ests[qi], math.Sqrt(sc.Variances()[qi])
			if se > 0 {
				sampled++
			}
			exact, ok := tc.m.EstimateExhaustive(cons, 1<<12)
			if !ok {
				t.Fatalf("model %d query %d: enumeration infeasible", mi, qi)
			}
			oracles := []float64{exact}
			if tc.ranges != nil && tc.ranges[qi] != nil {
				oracles = append(oracles, exactModelProb(tc.m, tc.ranges[qi]))
			}
			for _, want := range oracles {
				if math.Abs(got-want) > 4*se+1e-9 {
					t.Fatalf("model %d query %d: sampled %v ± %v, exact %v", mi, qi, got, se, want)
				}
			}
		}
	}
	if sampled < 8 {
		t.Fatalf("only %d queries carried Monte-Carlo error; the oracle check is near-vacuous", sampled)
	}
}

// TestMixedPrefixBatchMatchesSolo pins row sharing across queries as
// invisible in the answers: in a batch that mixes constrained-prefix
// patterns, and whose queries share forwarded rows, every query's estimate
// and variance have exactly the bits it gets when estimated alone.
func TestMixedPrefixBatchMatchesSolo(t *testing.T) {
	m, fc := dedupModel(t)
	const ns = 64
	rng := rand.New(rand.NewSource(47))
	// Two queries per pattern, so equal prefixes meet across queries.
	var batch [][]Constraint
	for _, live := range []int{0b1111, 0b1011, 0b1100, 0b0110, 0b1111, 0b1011, 0b1100, 0b0110} {
		batch = append(batch, randomQuery(rng, m, fc, live))
	}
	seeds := make([]int64, len(batch))
	for i := range seeds {
		seeds[i] = int64(900 + i)
	}
	sess := m.Net.NewSession(len(batch) * ns)
	sc := NewEstimateScratch()
	before := sess.ForwardedRows()
	ests, err := m.EstimateBatchScratch(sess, sc, batch, ns, seeds)
	if err != nil {
		t.Fatal(err)
	}
	together := sess.ForwardedRows() - before
	ests = append([]float64(nil), ests...)
	vars := append([]float64(nil), sc.Variances()...)

	alone := 0
	for qi, q := range batch {
		before := sess.ForwardedRows()
		solo, err := m.EstimateBatchScratch(sess, sc, [][]Constraint{q}, ns, seeds[qi:qi+1])
		if err != nil {
			t.Fatal(err)
		}
		alone += sess.ForwardedRows() - before
		if math.Float64bits(solo[0]) != math.Float64bits(ests[qi]) ||
			math.Float64bits(sc.Variances()[0]) != math.Float64bits(vars[qi]) {
			t.Fatalf("query %d (pattern of %v): batched %v (var %v), alone %v (var %v)",
				qi, q, ests[qi], vars[qi], solo[0], sc.Variances()[0])
		}
	}
	// Not vacuous: the batch must have shared rows between queries.
	if together >= alone {
		t.Fatalf("batch forwarded %d rows, the queries alone %d: no row was shared across queries", together, alone)
	}
}
