package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"iam/internal/query"
	"iam/internal/testutil"
)

// estimateWithCI is the single-query interval a caller reads off the
// variance path: the estimate and its standard error sqrt(var).
func estimateWithCI(m *Model, q *query.Query) (est, stderr float64, err error) {
	ests, vars, err := m.EstimateBatchVarSeeded([]*query.Query{q}, nil)
	if err != nil {
		return 0, 0, err
	}
	return ests[0], math.Sqrt(vars[0]), nil
}

// TestEstimateWithCI: a single query's estimate lies in [0, 1] with a finite,
// non-negative standard error, the truth lies within a generous band of it,
// and an unconstrained query is exactly 1 with standard error 0.
func TestEstimateWithCI(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	q := query.NewQuery(tb)
	mustAdd(t, q, query.Predicate{Col: "latitude", Op: query.Le, Value: 38})

	est, stderr, err := estimateWithCI(m, q)
	if err != nil {
		t.Fatal(err)
	}
	if est < 0 || est > 1 || !(stderr >= 0) || math.IsInf(stderr, 0) {
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
	est, stderr, err = estimateWithCI(m, query.NewQuery(tb))
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 || stderr != 0 {
		t.Fatalf("unconstrained: est=%v stderr=%v, want 1±0", est, stderr)
	}
}

// TestEstimateWithCIMatchesEstimate: a single query's interval comes from the
// content-seeded estimate path, so its estimate is bitwise Estimate(q)'s —
// for sampled queries and, under ExhaustiveLimit, for enumerated ones, whose
// standard error is 0.
func TestEstimateWithCIMatchesEstimate(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 8, Seed: 45})
	cfg := fastCfg()
	cfg.ExhaustiveLimit = 5000
	me, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		m         *Model
		wantExact bool
	}{{"sampled", m, false}, {"enumerated", me, true}} {
		sampled := 0
		for i, q := range w.Queries {
			est, stderr, err := estimateWithCI(tc.m, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.m.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(est) != math.Float64bits(want) {
				t.Fatalf("%s query %d: interval estimate %v, Estimate %v", tc.name, i, est, want)
			}
			if tc.wantExact && stderr != 0 {
				t.Fatalf("%s query %d: enumerated estimate reports stderr %v", tc.name, i, stderr)
			}
			if stderr > 0 {
				sampled++
			}
		}
		if !tc.wantExact && sampled == 0 {
			t.Fatalf("%s: no query carried a sampling error", tc.name)
		}
	}
}

// TestEstimateBatchVarSeededContract pins the variance entry point the
// sharded early stop feeds on: with nil seeds its estimates are bitwise
// Estimate(q)'s and the plain seeded path's under content seeds, every
// estimate lies in [0, 1] with a finite, non-negative variance, an
// unconstrained query is exactly 1 with variance 0, and queries answered by
// exhaustive enumeration are exact and so report variance 0.
// EstimateBatchVarInto gives the same bits into a reused buffer.
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
	ests, vars, err := m.EstimateBatchVarSeeded(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != len(qs) || len(vars) != len(qs) {
		t.Fatalf("got %d estimates and %d variances for %d queries", len(ests), len(vars), len(qs))
	}
	sampled := false
	for i, q := range qs {
		alone, err := m.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ests[i]) != math.Float64bits(plain[i]) || math.Float64bits(ests[i]) != math.Float64bits(alone) {
			t.Fatalf("query %d: variance path estimate %v, content-seeded %v, Estimate %v", i, ests[i], plain[i], alone)
		}
		if !(ests[i] >= 0 && ests[i] <= 1) {
			t.Fatalf("query %d: estimate %v outside [0, 1]", i, ests[i])
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
	ests, vars, err = me.EstimateBatchVarSeeded(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	enumerated := 0
	for i, q := range qs {
		alone, err := me.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ests[i]) != math.Float64bits(alone) {
			t.Fatalf("query %d: variance path estimate %v != Estimate %v", i, ests[i], alone)
		}
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

	// A caller-owned buffer holding stale values gives the same bits: the
	// enumerated queries' variances are reset to 0, not left as they were.
	buf := make([]float64, len(qs))
	for i := range buf {
		buf[i] = -1
	}
	into, err := me.EstimateBatchVarInto(buf, qs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if math.Float64bits(into[i]) != math.Float64bits(ests[i]) || math.Float64bits(buf[i]) != math.Float64bits(vars[i]) {
			t.Fatalf("query %d: EstimateBatchVarInto gave (%v, %v), EstimateBatchVarSeeded (%v, %v)", i, into[i], buf[i], ests[i], vars[i])
		}
	}
	if _, err := me.EstimateBatchVarInto(buf[:1], qs, seeds); err == nil {
		t.Fatal("a variance buffer shorter than the batch was accepted")
	}
}

// TestEstimateAvgDeterministic: EstimateAvg and EstimateSum sample with the
// stream Estimate uses, so repeated calls return the same bits.
func TestEstimateAvgDeterministic(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	q := query.NewQuery(tb)
	mustAdd(t, q, query.Predicate{Col: "latitude", Op: query.Ge, Value: 38})
	for _, f := range []func(*query.Query, string) (float64, error){m.EstimateAvg, m.EstimateSum} {
		a, err := f(q, "longitude")
		if err != nil {
			t.Fatal(err)
		}
		b, err := f(q, "longitude")
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("repeated calls differ: %v vs %v", a, b)
		}
	}
}

// TestAggregatesConcurrentWithBatch runs EstimateAvg and
// EstimateBatchVarSeeded against EstimateBatch from several goroutines; under -race it is the gate
// for the aggregates sharing the pooled read-locked workers. Every answer
// must equal its serial value.
func TestAggregatesConcurrentWithBatch(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 1
	cfg.NumSamples = 120
	m, tb := trainTWI(t, cfg)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 6, Seed: 46})
	q := w.Queries[0]
	wantAvg, err := m.EstimateAvg(q, "latitude")
	if err != nil {
		t.Fatal(err)
	}
	wantEst, wantVar, err := m.EstimateBatchVarSeeded([]*query.Query{q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, err := m.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch g {
				case 0:
					avg, err := m.EstimateAvg(q, "latitude")
					if err != nil || avg != wantAvg {
						errs <- fmt.Errorf("EstimateAvg = %v, %v; want %v", avg, err, wantAvg)
						return
					}
				case 1:
					est, v, err := m.EstimateBatchVarSeeded([]*query.Query{q}, nil)
					if err != nil || est[0] != wantEst[0] || v[0] != wantVar[0] {
						errs <- fmt.Errorf("EstimateBatchVarSeeded = %v, %v, %v; want %v, %v", est, v, err, wantEst, wantVar)
						return
					}
				default:
					got, err := m.EstimateBatch(w.Queries)
					if err != nil {
						errs <- err
						return
					}
					for j := range got {
						if got[j] != wantBatch[j] {
							errs <- fmt.Errorf("EstimateBatch query %d = %v, want %v", j, got[j], wantBatch[j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
