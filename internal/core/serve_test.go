package core

import (
	"testing"

	"iam/internal/query"
	"iam/internal/testutil"
)

// TestEstimateBatchSeededMatchesPositionSeeds pins that EstimateBatchSeeded
// with explicitly supplied position-derived seeds reproduces EstimateBatch
// bit for bit, and that a nil seed slice is the identity.
func TestEstimateBatchSeededMatchesPositionSeeds(t *testing.T) {
	cfg := fastCfg()
	m, _ := trainTWI(t, cfg)
	w := testutil.Workload(t, m.table, query.GenConfig{NumQueries: 12, Seed: 31})

	base, err := m.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int64, len(w.Queries))
	for i := range seeds {
		seeds[i] = PositionSeed(cfg.Seed, i)
	}
	seeded, err := m.EstimateBatchSeeded(w.Queries, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		if base[i] != seeded[i] {
			t.Fatalf("query %d: explicit position seeds diverge: %v vs %v", i, base[i], seeded[i])
		}
	}
	if _, err := m.EstimateBatchSeeded(w.Queries, seeds[:3]); err == nil {
		t.Fatal("mismatched seed slice length not rejected")
	}
}

// TestQuerySeedBatchInvariance pins the property the serving layer's dynamic
// batcher depends on: with content-derived seeds, a query's estimate is the
// same whether it is served alone or buried in a batch of other queries.
func TestQuerySeedBatchInvariance(t *testing.T) {
	cfg := fastCfg()
	m, _ := trainTWI(t, cfg)
	w := testutil.Workload(t, m.table, query.GenConfig{NumQueries: 10, Seed: 32})

	// Batch of everything, content seeds.
	seeds := make([]int64, len(w.Queries))
	for i, q := range w.Queries {
		seeds[i] = m.QuerySeed(q)
	}
	batched, err := m.EstimateBatchSeeded(w.Queries, seeds)
	if err != nil {
		t.Fatal(err)
	}
	// Each query alone, same content seed.
	for i, q := range w.Queries {
		solo, err := m.EstimateBatchSeeded([]*query.Query{q}, []int64{m.QuerySeed(q)})
		if err != nil {
			t.Fatal(err)
		}
		if solo[0] != batched[i] {
			t.Fatalf("query %d: solo %v != batched %v — estimate depends on batch composition", i, solo[0], batched[i])
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
