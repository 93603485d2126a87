package core

import (
	"fmt"
	"math"
	"sync"
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
// are exact and so report variance 0. EstimateBatchVarInto gives the same
// bits into a reused buffer.
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

// TestEstimateWithCIMatchesEstimate: EstimateWithCI runs the seeded estimate
// path, so its estimate is bitwise Estimate(q)'s and its standard error is
// the square root of EstimateBatchVarSeeded's variance — for sampled queries
// and, under ExhaustiveLimit, for enumerated ones (standard error 0).
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
			est, stderr, err := tc.m.EstimateWithCI(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.m.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			ests, vars, err := tc.m.EstimateBatchVarSeeded([]*query.Query{q}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(est) != math.Float64bits(want) || math.Float64bits(est) != math.Float64bits(ests[0]) {
				t.Fatalf("%s query %d: EstimateWithCI %v, Estimate %v, EstimateBatchVarSeeded %v", tc.name, i, est, want, ests[0])
			}
			if math.Float64bits(stderr) != math.Float64bits(math.Sqrt(vars[0])) {
				t.Fatalf("%s query %d: stderr %v, sqrt(variance) %v", tc.name, i, stderr, math.Sqrt(vars[0]))
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

// TestAggregatesConcurrentWithBatch runs EstimateAvg and EstimateWithCI
// against EstimateBatch from several goroutines; under -race it is the gate
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
	wantEst, wantSE, err := m.EstimateWithCI(q)
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
					est, se, err := m.EstimateWithCI(q)
					if err != nil || est != wantEst || se != wantSE {
						errs <- fmt.Errorf("EstimateWithCI = %v ± %v, %v; want %v ± %v", est, se, err, wantEst, wantSE)
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
