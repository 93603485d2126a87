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

// TestMassesFollowGMMAfterMoreTraining: the §5.2 masses are read off the
// mixture's current parameters, so after further training moves them the
// masses move with them, with nothing to invalidate. A GMM column's masses
// of one interval are taken inside OnEpoch after the first epoch and again
// after the last: they differ, and the last ones are the final mixture's
// (bitwise under MassExact, within Monte-Carlo error under the default).
func TestMassesFollowGMMAfterMoreTraining(t *testing.T) {
	for _, mode := range []RangeMassMode{MassMonteCarlo, MassExact} {
		cfg := fastCfg()
		cfg.Epochs = 3
		cfg.MassMode = mode
		const lo, hi = 30.0, 45.0 // latitude band inside the data
		masses := func(m *Model) []float64 {
			m.rlockFresh()
			defer m.mu.RUnlock()
			out := make([]float64, m.cols[0].Card)
			m.cols[0].Weights(lo, hi, out)
			return out
		}
		var first []float64
		cfg.OnEpoch = func(epoch int, m *Model, _, _ float64) bool {
			if epoch == 0 {
				first = masses(m)
			}
			return true
		}
		m, _ := trainTWI(t, cfg)
		if m.cols[0].kind != kindGMM {
			t.Fatalf("column 0 is kind %d, want a GMM column", m.cols[0].kind)
		}
		last := masses(m)
		exact := make([]float64, len(last))
		m.cols[0].gm.RangeMassExact(lo, hi, exact)
		moved := false
		for k := range last {
			moved = moved || last[k] != first[k]
			tol := 0.0
			if mode == MassMonteCarlo {
				tol = 4 / math.Sqrt(float64(cfg.GMMSamples)) // 8 binomial σ at p = 1/2
			}
			if math.Abs(last[k]-exact[k]) > tol {
				t.Fatalf("mode %d component %d: mass %v after training, final mixture's %v", mode, k, last[k], exact[k])
			}
		}
		if !moved {
			t.Fatalf("mode %d: masses after epoch 0 and after training are identical", mode)
		}
	}
}

// TestEstimateBatchAllocBudget is the CI-gated allocation budget for the
// serving hot path: after warm-up (pooled worker, pooled constraint arenas
// holding the §5.2 weight vectors), one EstimateBatch over the benchmark
// workload must stay within a small fixed number of heap allocations — the
// returned estimate slice plus change — instead of the ~175/op the
// boxing-per-constraint path used to cost.
func TestEstimateBatchAllocBudget(t *testing.T) {
	prev := vecmath.Parallelism(1)
	defer vecmath.Parallelism(prev)

	cfg := fastCfg()
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
