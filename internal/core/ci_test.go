package core

import (
	"math"
	"testing"

	"iam/internal/query"
	"iam/internal/testutil"
)

func TestEstimateWithCI(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	q := query.NewQuery(tb)
	mustAdd(t, q, query.Predicate{Col: "latitude", Op: query.Le, Value: 38})

	est, stderr, err := m.EstimateWithCI(q)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0 || est > 1 || stderr < 0 || math.IsNaN(stderr) {
		t.Fatalf("est=%v stderr=%v", est, stderr)
	}
	// The truth should lie within a few standard errors most of the time;
	// allow a generous band since the model itself is approximate.
	truth := query.Exec(q)
	if math.Abs(est-truth) > 10*stderr+0.05 {
		t.Fatalf("estimate %v ± %v too far from truth %v", est, stderr, truth)
	}

	// An unconstrained query has zero Monte-Carlo variance (every path
	// contributes exactly 1).
	full := query.NewQuery(tb)
	est, stderr, err = m.EstimateWithCI(full)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 || stderr != 0 {
		t.Fatalf("unconstrained: est=%v stderr=%v, want 1±0", est, stderr)
	}
}

// TestEstimateBatchVarSeededContract pins the variance entry point the
// sharded early stop feeds on: its estimates are bitwise the plain seeded
// path's, every variance is a non-negative number, an unconstrained query is
// exactly 1 with variance 0, and queries answered by exhaustive enumeration
// are exact and so report variance 0.
func TestEstimateBatchVarSeededContract(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 16, Seed: 44})
	qs := append([]*query.Query{query.NewQuery(tb)}, w.Queries...)
	seeds := make([]int64, len(qs))
	for i, q := range qs {
		seeds[i] = m.QuerySeed(q)
	}

	plain, err := m.EstimateBatchSeeded(qs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	ests, vars, err := m.EstimateBatchVarSeeded(qs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != len(qs) || len(vars) != len(qs) {
		t.Fatalf("got %d estimates and %d variances for %d queries", len(ests), len(vars), len(qs))
	}
	sampled := false
	for i := range qs {
		if math.Float64bits(ests[i]) != math.Float64bits(plain[i]) {
			t.Fatalf("query %d: variance path estimate %v != seeded estimate %v", i, ests[i], plain[i])
		}
		if !(vars[i] >= 0) || math.IsInf(vars[i], 0) {
			t.Fatalf("query %d: variance %v, want finite and >= 0", i, vars[i])
		}
		sampled = sampled || vars[i] > 0
	}
	if ests[0] != 1 || vars[0] != 0 {
		t.Fatalf("unconstrained: est=%v var=%v, want 1 and 0", ests[0], vars[0])
	}
	if !sampled {
		t.Fatal("no query reported a positive sampling variance; the workload never exercised the sampler")
	}

	cfg := fastCfg()
	cfg.ExhaustiveLimit = 5000
	me, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ests, vars, err = me.EstimateBatchVarSeeded(qs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	enumerated := 0
	for i, q := range qs {
		cons, err := me.buildConstraints(q)
		if err != nil {
			t.Fatal(err)
		}
		exact, ok := me.arm.EstimateExhaustive(cons, cfg.ExhaustiveLimit)
		if !ok {
			continue
		}
		enumerated++
		if math.Float64bits(ests[i]) != math.Float64bits(exact) || vars[i] != 0 {
			t.Fatalf("enumerated query %d: est=%v var=%v, want %v and 0", i, ests[i], vars[i], exact)
		}
	}
	if enumerated == 0 {
		t.Fatal("no query was answered by enumeration")
	}
}
