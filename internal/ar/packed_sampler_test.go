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
// prefix signature), all unchanged between calls.
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
	p0 := sc.plans[[4]uint64{}]
	if _, err := m.EstimateBatchScratch(sess, sc, consList, 8, seeds); err != nil {
		t.Fatal(err)
	}
	if len(sc.plans) != nPlans {
		t.Fatalf("plan count changed across identical calls: %d -> %d", nPlans, len(sc.plans))
	}
	if sc.plans[[4]uint64{}] != p0 {
		t.Fatal("plan for the empty prefix was rebuilt despite unchanged parameters")
	}
}

// TestPackedMatchesDenseFallbackEstimates: the packed and dense samplers
// draw through different logit reduction orders, so estimates are not
// bit-equal — but on a trained model both are Monte Carlo estimates of the
// same distribution and must agree closely at a healthy sample count.
func TestPackedMatchesDenseFallbackEstimates(t *testing.T) {
	m, _ := trainedModel(t)
	cons := [][]Constraint{{RangeConstraint{0, 2}, nil, RangeConstraint{1, 3}}}
	sess := m.Net.NewSession(2048)
	sc := NewEstimateScratch()
	seeds := []int64{77}

	packedEst, err := m.EstimateBatchScratch(sess, sc, cons, 2048, seeds)
	if err != nil {
		t.Fatal(err)
	}
	p := packedEst[0]

	defer func(prev bool) { packedSampling = prev }(packedSampling)
	packedSampling = false
	denseEst, err := m.EstimateBatchScratch(sess, sc, cons, 2048, seeds)
	if err != nil {
		t.Fatal(err)
	}
	d := denseEst[0]
	if math.Abs(p-d) > 0.05*math.Max(p, d)+1e-3 {
		t.Fatalf("packed estimate %v and dense estimate %v disagree beyond Monte Carlo noise", p, d)
	}
}
