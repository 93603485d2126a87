package serve

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"iam/internal/core"
	"iam/internal/query"
	"iam/internal/testutil"
)

// TestSwapVersionPurity is the -race stress for batching under hot swaps:
// two models with different parameters alternate as the served version
// while concurrent clients keep several dispatch batches in flight, so
// concurrent batches run inside each model while versions swap mid-storm.
// The invariant: every batch-path answer is bit-identical to the solo
// baseline of the model its version wraps. A batch that ever mixed model
// versions (or let batch composition perturb a draw) would break the
// bitwise match.
func TestSwapVersionPurity(t *testing.T) {
	mA, tbl := testModel(t)
	cfgB := fixtureCfg()
	cfgB.Seed = 8
	mB, err := core.Train(tbl, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 8, Seed: 104})

	// Per-model bitwise baselines, computed directly on each model.
	baseline := func(m *core.Model) []float64 {
		ests := make([]float64, len(w.Queries))
		for i, q := range w.Queries {
			res, err := m.EstimateBatchSeeded([]*query.Query{q}, []int64{m.QuerySeed(q)})
			if err != nil {
				t.Fatal(err)
			}
			ests[i] = res[0]
		}
		return ests
	}
	baseA, baseB := baseline(mA), baseline(mB)

	// Small batches and several in-flight slots force concurrent dispatches
	// into the same model.
	s, err := New(Config{BatchWindow: time.Millisecond, MaxBatch: 4, MaxInFlight: 3}, tbl, mA)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)

	var verMu sync.Mutex
	verBase := map[int][]float64{1: baseA} // version id → expected answers
	type obs struct {
		version, qi int
		sel         float64
	}
	var obsMu sync.Mutex
	var observed []obs

	iters := 250
	if testing.Short() {
		iters = 60
	}
	stop := make(chan struct{})
	var swapWG sync.WaitGroup
	swapWG.Add(1)
	go func() {
		defer swapWG.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				m, base := mB, baseB
				if k%2 == 1 {
					m, base = mA, baseA
				}
				// Record the mapping under the same lock before clients can
				// observe the new id: Swap publishes the version only after
				// returning, and clients read verBase after collecting.
				id, err := s.Swap(m)
				if err != nil {
					t.Errorf("swap: %v", err)
					return
				}
				verMu.Lock()
				verBase[id] = base
				verMu.Unlock()
			}
		}
	}()

	const clients = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (c + i) % len(w.Queries)
				res, err := s.Estimate(context.Background(), w.Queries[qi])
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if res.Source != SourceBatch {
					continue
				}
				obsMu.Lock()
				observed = append(observed, obs{version: res.Version, qi: qi, sel: res.Selectivity})
				obsMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	swapWG.Wait()

	if len(observed) == 0 {
		t.Fatal("no batch-path answers recorded")
	}
	if st := s.Stats(); st.Swaps == 0 {
		t.Fatal("stress ran without a single swap")
	}
	for _, o := range observed {
		base, ok := verBase[o.version]
		if !ok {
			t.Fatalf("answer from unrecorded version %d", o.version)
		}
		if math.Float64bits(o.sel) != math.Float64bits(base[o.qi]) {
			t.Fatalf("version %d query %d: answer %v != model baseline %v — a batch mixed versions or perturbed a draw",
				o.version, o.qi, o.sel, base[o.qi])
		}
	}
}
