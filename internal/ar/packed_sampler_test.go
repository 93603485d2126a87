package ar

import (
	"fmt"
	"math"
	"testing"
)

// distinctPrefixRows counts, from the final sample rows of a run, the rows
// the deduplicating packed sampler must forward: per column c, the distinct
// (constrained-prefix signature, codes on that prefix) pairs over the
// samples still live at c. A sample was live at c exactly when its query
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

// TestPackedGroupingSharesForwards pins the packed sampler's forward
// accounting: each column forwards one row per distinct (prefix signature,
// prefix codes) pair, shared across the samples and queries that hold it.
// Columns with an empty constrained prefix therefore forward one row for
// the whole batch.
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
	// Column 2: queries 0,1 share signature {0} and forward one row per
	// distinct column-0 code among their samples; query 2 (signature {1})
	// one per distinct column-1 code.
	want := distinctPrefixRows(m, consList, sc.rows, ns)
	if got != want {
		t.Fatalf("forwarded %d rows, want %d (prefix groups must share forwards)", got, want)
	}
	if want > 1+1+4+3 {
		t.Fatalf("%d distinct prefixes exceed the 9 the domains allow", want)
	}
}

// TestPackedPlanCacheReusedAcrossCalls: repeating a workload on the same
// scratch must not rebuild plans — the cache keys on (net, generation,
// prefix signature bytes), all unchanged between calls.
func TestPackedPlanCacheReusedAcrossCalls(t *testing.T) {
	m := freshModel(t, []int{4, 4, 5})
	consList := [][]Constraint{
		{RangeConstraint{0, 2}, nil, RangeConstraint{0, 3}},
	}
	sess := m.Net.NewSession(8)
	sc := NewEstimateScratch()
	seeds := []int64{11}
	if _, err := m.EstimateBatchScratch(sess, sc, consList, 8, seeds); err != nil {
		t.Fatal(err)
	}
	nPlans := len(sc.plans)
	if nPlans == 0 {
		t.Fatal("packed sampler built no plans")
	}
	empty := string(make([]byte, sc.sigBytes)) // no column sampled yet
	p0 := sc.plans[empty]
	if _, err := m.EstimateBatchScratch(sess, sc, consList, 8, seeds); err != nil {
		t.Fatal(err)
	}
	if len(sc.plans) != nPlans {
		t.Fatalf("plan count changed across identical calls: %d -> %d", nPlans, len(sc.plans))
	}
	if sc.plans[empty] != p0 {
		t.Fatal("plan for the empty prefix was rebuilt despite unchanged parameters")
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
