package core

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"iam/internal/query"
	"iam/internal/testutil"
	"iam/internal/vecmath"
)

// TestEstimateBitIdenticalAcrossWorkers: the same workload must produce
// bit-identical estimates whether the batch runs single-threaded or sharded
// across 8 workers — per-query (Seed, index) streams make the sampling
// independent of scheduling.
func TestEstimateBitIdenticalAcrossWorkers(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 2
	m, tb := trainTWI(t, cfg)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 24, Seed: 31})

	run := func(workers int) []float64 {
		m.cfg.Workers = workers
		ests, err := m.EstimateBatch(w.Queries)
		if err != nil {
			t.Fatal(err)
		}
		return ests
	}
	base := run(1)
	for _, workers := range []int{2, 8, -1} {
		got := run(workers)
		for i := range base {
			if math.Float64bits(got[i]) != math.Float64bits(base[i]) {
				t.Fatalf("workers=%d query %d: %v != workers=1 result %v",
					workers, i, got[i], base[i])
			}
		}
	}
}

// TestEstimateWorkerCountResolution pins the cfg.Workers contract: 0 and 1
// mean single-threaded, negative expands to GOMAXPROCS, and a batch never
// gets more workers than pending queries.
func TestEstimateWorkerCountResolution(t *testing.T) {
	m := &Model{cfg: Config{Workers: 0}}
	if got := m.estimateWorkerCount(10); got != 1 {
		t.Fatalf("Workers=0 resolves to %d, want 1", got)
	}
	m.cfg.Workers = 4
	if got := m.estimateWorkerCount(2); got != 2 {
		t.Fatalf("Workers=4, 2 pending resolves to %d, want 2", got)
	}
	m.cfg.Workers = -1
	if got := m.estimateWorkerCount(1000); got < 1 {
		t.Fatalf("Workers=-1 resolves to %d, want >= 1 (GOMAXPROCS)", got)
	}
}

// TestConcurrentEstimateStress hammers EstimateBatch from 8 goroutines while
// a writer goroutine repeatedly saves checkpoints (write lock) and
// invalidates the mass preprocessing, forcing refresh churn under the
// upgrade path. Run with -race this is the data-race gate for the
// concurrent serving path.
func TestConcurrentEstimateStress(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 1
	cfg.NumSamples = 120
	cfg.Workers = 4
	cfg.MassCacheSize = 16
	m, tb := trainTWI(t, cfg)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 12, Seed: 41})

	ckpt := filepath.Join(t.TempDir(), "stress.ckpt")
	iters := 6
	if testing.Short() {
		iters = 2
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				ests, err := m.EstimateBatch(w.Queries)
				if err != nil {
					errs <- err
					return
				}
				for _, v := range ests {
					if math.IsNaN(v) || v < 0 || v > 1 {
						errs <- errEstimateOutOfRange
						return
					}
				}
			}
		}()
	}
	// Checkpoint-style writer: Save takes the write lock; invalidateMasses
	// forces the next estimator through the refresh upgrade.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < 2*iters; it++ {
			f, err := os.Create(ckpt)
			if err != nil {
				errs <- err
				return
			}
			if err := m.Save(f); err != nil {
				errs <- err
				_ = f.Close()
				return
			}
			if err := f.Close(); err != nil {
				errs <- err
				return
			}
			m.invalidateMasses()
		}
	}()
	wg.Wait()
	close(errs)
	if err, ok := <-errs; ok {
		t.Fatal(err)
	}
}

var errEstimateOutOfRange = errOutOfRange{}

type errOutOfRange struct{}

func (errOutOfRange) Error() string { return "estimate out of [0, 1] or NaN" }

// TestMassCacheHitsAndInvalidation: a second identical batch must be served
// from the cache (same constraint weight slices), and invalidateMasses must
// purge it.
func TestMassCacheHitsAndInvalidation(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 2
	cfg.MassCacheSize = 8
	m, tb := trainTWI(t, cfg)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 4, Seed: 51})

	first, err := m.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	m.cacheMu.Lock()
	if m.massCache == nil || m.massCache.order.Len() == 0 {
		m.cacheMu.Unlock()
		t.Fatal("mass cache empty after estimating GMM-column queries")
	}
	entries := m.massCache.order.Len()
	m.cacheMu.Unlock()

	second, err := m.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("query %d: repeat estimate %v != first %v (same seed stream + cached masses)", i, second[i], first[i])
		}
	}
	m.cacheMu.Lock()
	if got := m.massCache.order.Len(); got != entries {
		m.cacheMu.Unlock()
		t.Fatalf("repeat batch grew the cache to %d entries (was %d): keys miss", got, entries)
	}
	m.cacheMu.Unlock()

	m.invalidateMasses()
	if _, err := m.EstimateBatch(w.Queries[:1]); err != nil {
		t.Fatal(err)
	}
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	if m.massCache == nil {
		t.Fatal("cache not rebuilt after refresh")
	}
	if got := m.massCache.order.Len(); got == 0 || got > 2 {
		t.Fatalf("post-purge cache holds %d entries, want the 1-2 from the single query", got)
	}
}

// TestMassCacheLRUEviction exercises the eviction path directly.
func TestMassCacheLRUEviction(t *testing.T) {
	c := newMassCache(2)
	k1 := massKey{col: 0, lo: 0, hi: 1}
	k2 := massKey{col: 0, lo: 0, hi: 2}
	k3 := massKey{col: 1, lo: 0, hi: 1}
	c.put(k1, []float64{1})
	c.put(k2, []float64{2})
	if _, ok := c.get(k1); !ok { // touch k1 → k2 becomes LRU
		t.Fatal("k1 missing")
	}
	c.put(k3, []float64{3}) // evicts k2
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 survived eviction")
	}
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 evicted despite being MRU")
	}
	if v, ok := c.get(k3); !ok || len(v) != 1 || math.Float64bits(v[0]) != math.Float64bits(3) {
		t.Fatalf("k3 lookup = %v, %v", v, ok)
	}
}

// TestEstimateBatchAllocBudget is the CI-gated allocation budget for the
// serving hot path: after warm-up (pooled worker, pooled constraint arenas,
// warm mass cache), one EstimateBatch over the benchmark workload must stay
// within a small fixed number of heap allocations — the returned estimate
// slice plus change — instead of the ~175/op the boxing-per-constraint path
// used to cost.
func TestEstimateBatchAllocBudget(t *testing.T) {
	prev := vecmath.Parallelism(1)
	defer vecmath.Parallelism(prev)

	cfg := fastCfg()
	cfg.MassCacheSize = 256
	cfg.Workers = 1
	m, _ := trainTWI(t, cfg)
	w := testutil.Workload(t, m.table, query.GenConfig{NumQueries: 32, Seed: 43})

	if _, err := m.EstimateBatch(w.Queries); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := m.EstimateBatch(w.Queries); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 32
	if n > budget {
		t.Fatalf("steady-state EstimateBatch allocates %v per op, budget %d", n, budget)
	}
}
