package core

import (
	"math"
	"testing"

	"iam/internal/query"
	"iam/internal/testutil"
)

// TestQuerySeedBatchInvariance pins the one seed scheme: a nil seed means
// the content seed QuerySeed(q), so each query has one answer, bit for bit,
// whether it is estimated alone (Estimate), at two different positions of
// EstimateBatch, twice in one batch, through EstimateBatchSeeded with nil
// seeds, or with its content seed passed explicitly.
func TestQuerySeedBatchInvariance(t *testing.T) {
	cfg := fastCfg()
	m, _ := trainTWI(t, cfg)
	w := testutil.Workload(t, m.table, query.GenConfig{NumQueries: 10, Seed: 32})
	n := len(w.Queries)

	forward, err := m.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed, so every query sits at another position (n is even), and
	// each query twice in one batch.
	reversed := make([]*query.Query, n)
	for i, q := range w.Queries {
		reversed[n-1-i] = q
	}
	backward, err := m.EstimateBatch(reversed)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := m.EstimateBatch(append(append([]*query.Query(nil), w.Queries...), w.Queries...))
	if err != nil {
		t.Fatal(err)
	}
	nilSeeded, err := m.EstimateBatchSeeded(w.Queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int64, n)
	for i, q := range w.Queries {
		seeds[i] = m.QuerySeed(q)
	}
	for i, q := range w.Queries {
		alone, err := m.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		explicit, err := m.EstimateBatchSeeded([]*query.Query{q}, []int64{seeds[i]})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Float64bits(alone)
		for _, got := range []struct {
			how string
			v   float64
		}{
			{"EstimateBatch", forward[i]},
			{"EstimateBatch reversed", backward[n-1-i]},
			{"first copy in one batch", twice[i]},
			{"second copy in one batch", twice[n+i]},
			{"EstimateBatchSeeded(nil)", nilSeeded[i]},
			{"explicit content seed", explicit[0]},
		} {
			if math.Float64bits(got.v) != want {
				t.Fatalf("query %d: %s gives %v, Estimate %v", i, got.how, got.v, alone)
			}
		}
	}
	// Seeds must differ across (non-identical) queries.
	distinct := map[int64]bool{}
	for _, s := range seeds {
		distinct[s] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("content seeds collapsed: %v", seeds)
	}
	if _, err := m.EstimateBatchSeeded(w.Queries, seeds[:3]); err == nil {
		t.Fatal("mismatched seed slice length not rejected")
	}
}

// TestReleaseWorkersRewarms pins that dropping the worker pool is invisible
// to correctness: estimates after ReleaseWorkers are bit-identical to
// before, and the pool re-warms lazily.
func TestReleaseWorkersRewarms(t *testing.T) {
	cfg := fastCfg()
	cfg.Workers = 2
	m, _ := trainTWI(t, cfg)
	w := testutil.Workload(t, m.table, query.GenConfig{NumQueries: 8, Seed: 33})

	before, err := m.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	m.poolMu.Lock()
	pooled := len(m.workers)
	m.poolMu.Unlock()
	if pooled == 0 {
		t.Fatal("no workers pooled after an estimate")
	}
	m.ReleaseWorkers()
	m.poolMu.Lock()
	pooled = len(m.workers)
	m.poolMu.Unlock()
	if pooled != 0 {
		t.Fatalf("%d workers survived ReleaseWorkers", pooled)
	}
	after, err := m.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("query %d: estimate changed across ReleaseWorkers: %v vs %v", i, before[i], after[i])
		}
	}
}
