package serve

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"iam/internal/query"
	"iam/internal/shard"
	"iam/internal/testutil"
)

func ensembleCfg(k int, seed int64) shard.Config {
	cfg := shard.Config{Shards: k}
	cfg.Config = fixtureCfg()
	cfg.Config.GMMThreshold = 50 // shards see fewer distinct values
	cfg.Config.Epochs = 2
	cfg.Config.Seed = seed
	return cfg
}

// TestServerEnsembleInstallAndSwap pins the serving contract over a sharded
// ensemble: the batcher answers bit-identically to a direct content-seeded
// ensemble estimate, and Swap installs a new generation that serves
// its own answers while the old one retires.
func TestServerEnsembleInstallAndSwap(t *testing.T) {
	_, tbl := testModel(t)
	e1, err := shard.Train(tbl, ensembleCfg(3, 7))
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 10, Seed: 177})
	s, err := NewEnsemble(Config{BatchWindow: 20 * time.Millisecond, MaxBatch: 16, MaxInFlight: 1}, tbl, e1)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)

	serveAll := func(wantVersion int) []Result {
		results := make([]Result, len(w.Queries))
		var wg sync.WaitGroup
		for i, q := range w.Queries {
			wg.Add(1)
			go func(i int, q *query.Query) {
				defer wg.Done()
				res, err := s.Estimate(context.Background(), q)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				results[i] = res
			}(i, q)
		}
		wg.Wait()
		for i, res := range results {
			if res.Source != SourceBatch || res.Version != wantVersion {
				t.Fatalf("query %d: unexpected provenance %q v%d (want batch v%d)",
					i, res.Source, res.Version, wantVersion)
			}
		}
		return results
	}

	direct := func(e *shard.Ensemble) []float64 {
		seeds := make([]int64, len(w.Queries))
		for i, q := range w.Queries {
			seeds[i] = e.QuerySeed(q)
		}
		want, err := e.EstimateBatchSeeded(w.Queries, seeds)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}

	got := serveAll(1)
	want := direct(e1)
	for i := range got {
		if got[i].Selectivity != want[i] {
			t.Fatalf("query %d: served %v != direct ensemble %v — batching leaked into the estimate",
				i, got[i].Selectivity, want[i])
		}
	}

	// Swap to a retrained generation: answers must come from the new
	// ensemble, bit-identically to asking it directly.
	e2, err := shard.Train(tbl, ensembleCfg(3, 99))
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Swap(e2)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("swap produced version %d, want 2", id)
	}
	got = serveAll(2)
	want = direct(e2)
	for i := range got {
		if got[i].Selectivity != want[i] {
			t.Fatalf("after swap, query %d: served %v != direct ensemble %v", i, got[i].Selectivity, want[i])
		}
	}
	if s.Stats().Swaps != 1 {
		t.Fatalf("swaps counter = %d, want 1", s.Stats().Swaps)
	}
}

// TestServerEnsembleShutdownPersistsEnsemble checks Close flushes the served
// ensemble — not a bare model — to SavePath, and the file round-trips
// through shard.Load to bit-identical estimates.
func TestServerEnsembleShutdownPersistsEnsemble(t *testing.T) {
	_, tbl := testModel(t)
	e, err := shard.Train(tbl, ensembleCfg(2, 13))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ensemble.iam")
	s, err := NewEnsemble(Config{BatchWindow: time.Millisecond, SavePath: path}, tbl, e)
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 4, Seed: 31})
	for _, q := range w.Queries {
		if _, err := s.Estimate(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, s)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	head := make([]byte, len(shard.Magic))
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	if !shard.IsEnsemble(head) {
		t.Fatalf("flushed file is not an ensemble snapshot (prefix %q)", head)
	}
	loaded, err := shard.Load(f, tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		seed := []int64{e.QuerySeed(q)}
		a, err := e.EstimateBatchSeeded([]*query.Query{q}, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.EstimateBatchSeeded([]*query.Query{q}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if a[0] != b[0] {
			t.Fatalf("reloaded ensemble diverges: %v != %v", b[0], a[0])
		}
	}
}
