package shard

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/query"
	"iam/internal/testutil"
	"iam/internal/vecmath"
)

// testCfg keeps per-shard training cheap. GMMThreshold is lowered so the
// continuous columns stay GMM-reduced even on small shards (a shard sees
// only n/K rows, hence fewer distinct values than the full table).
func testCfg(k int) Config {
	cfg := Config{Shards: k}
	cfg.GMMThreshold = 50
	cfg.Components = 8
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8
	cfg.Epochs = 2
	cfg.BatchSize = 128
	cfg.NumSamples = 128
	cfg.GMMSamples = 1000
	cfg.Seed = 7
	return cfg
}

func trainEnsemble(t *testing.T, tb *dataset.Table, cfg Config) *Ensemble {
	t.Helper()
	e, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPartitionInvariant pins what the exact merge rests on: the shards are
// contiguous, disjoint, cover every row, alias the parent storage, and each
// one is a structurally valid table.
func TestPartitionInvariant(t *testing.T) {
	tb := dataset.SynthTWI(1001, 3)
	for _, k := range []int{1, 2, 3, 7} {
		parts := Partition(tb, k)
		if len(parts) != k {
			t.Fatalf("k=%d: got %d parts", k, len(parts))
		}
		total := 0
		for si, p := range parts {
			if err := p.Validate(); err != nil {
				t.Fatalf("k=%d shard %d: %v", k, si, err)
			}
			lo, hi := si*tb.NumRows()/k, (si+1)*tb.NumRows()/k
			if p.NumRows() != hi-lo {
				t.Fatalf("k=%d shard %d: %d rows, want %d", k, si, p.NumRows(), hi-lo)
			}
			// Aliasing, not copying: the shard's first row is the parent's
			// row lo in every column.
			for ci, c := range p.Columns {
				pc := tb.Columns[ci]
				if c.Kind == dataset.Continuous && &c.Floats[0] != &pc.Floats[lo] {
					t.Fatalf("k=%d shard %d col %d: floats not aliased", k, si, ci)
				}
			}
			total += p.NumRows()
		}
		if total != tb.NumRows() {
			t.Fatalf("k=%d: shards cover %d of %d rows", k, total, tb.NumRows())
		}
		if k == 1 && parts[0] != tb {
			t.Fatal("k=1 must return the parent table itself")
		}
	}
}

// TestMergeExactness is the satellite property test: the row-count-weighted
// sum of per-shard *true* selectivities equals the full-table truth, for
// every query and every shard count — selectivity is additive over a row
// partition, which is the whole reason the ensemble's merge is exact.
func TestMergeExactness(t *testing.T) {
	tb := dataset.SynthTWI(4000, 11)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 40, Seed: 5})
	for _, k := range []int{2, 3, 5} {
		parts := Partition(tb, k)
		for qi, q := range w.Queries {
			var merged float64
			for _, p := range parts {
				sub := &query.Query{Table: p, Ranges: q.Ranges}
				merged += float64(p.NumRows()) / float64(tb.NumRows()) * query.Exec(sub)
			}
			if math.Abs(merged-w.TrueSel[qi]) > 1e-12 {
				t.Fatalf("k=%d query %d: merged truth %v != full truth %v", k, qi, merged, w.TrueSel[qi])
			}
		}
	}
}

// TestEnsembleK1BitIdentical pins the acceptance criterion: a one-shard
// ensemble answers bit-identically to the plain core.Model path, on both the
// position-seeded and the content-seeded (serving) entry points.
func TestEnsembleK1BitIdentical(t *testing.T) {
	tb := dataset.SynthTWI(2400, 11)
	cfg := testCfg(1)
	plain, err := core.Train(tb, cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	e := trainEnsemble(t, tb, cfg)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 24, Seed: 9})

	want, err := plain.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("query %d: ensemble %v != plain %v", i, got[i], want[i])
		}
	}

	seeds := make([]int64, len(w.Queries))
	for i, q := range w.Queries {
		if ps, es := plain.QuerySeed(q), e.QuerySeed(q); ps != es {
			t.Fatalf("query %d: ensemble seed %d != plain seed %d", i, es, ps)
		}
		seeds[i] = plain.QuerySeed(q)
	}
	want, err = plain.EstimateBatchSeeded(w.Queries, seeds)
	if err != nil {
		t.Fatal(err)
	}
	got, err = e.EstimateBatchSeeded(w.Queries, seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("seeded query %d: ensemble %v != plain %v", i, got[i], want[i])
		}
	}
}

// TestTrainConcurrencyDeterminism is the satellite determinism test: the
// ensemble's estimates are bit-identical whether its shards trained one at a
// time, two at a time, or all K at once.
func TestTrainConcurrencyDeterminism(t *testing.T) {
	tb := dataset.SynthTWI(2400, 11)
	const k = 3
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 16, Seed: 13})
	var baseline []float64
	for _, par := range []int{1, 2, k} {
		cfg := testCfg(k)
		cfg.TrainParallel = par
		e := trainEnsemble(t, tb, cfg)
		got, err := e.EstimateBatch(w.Queries)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = got
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(baseline[i]) {
				t.Fatalf("TrainParallel=%d query %d: %v != baseline %v", par, i, got[i], baseline[i])
			}
		}
	}
}

// TestMergeMatchesManualWeightedSum pins the merge formula (and with it the
// EarlyStopRelErr=0 contract): the exhaustive ensemble answer is exactly
// Σ_s w_s·est_s computed by hand against each shard model, bit for bit.
func TestMergeMatchesManualWeightedSum(t *testing.T) {
	tb := dataset.SynthTWI(2400, 11)
	const k = 3
	e := trainEnsemble(t, tb, testCfg(k))
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 16, Seed: 17})

	got, err := e.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(w.Queries))
	for si := 0; si < k; si++ {
		part := e.ShardTable(si)
		sub := make([]*query.Query, len(w.Queries))
		for i, q := range w.Queries {
			sub[i] = &query.Query{Table: part, Ranges: q.Ranges}
		}
		ests, err := e.ShardModel(si).EstimateBatchSeeded(sub, nil)
		if err != nil {
			t.Fatal(err)
		}
		weight := float64(part.NumRows()) / float64(tb.NumRows())
		for i, v := range ests {
			want[i] += weight * v
		}
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("query %d: ensemble %v != manual merge %v", i, got[i], want[i])
		}
	}
}

// TestEarlyStopDeterministicSkips exercises the tentpole's termination path:
// with a loose relative-error target some shard visits must actually be
// skipped, the answers must stay physical and close to the exhaustive merge,
// and both the answers and the skip counters must be bit-reproducible run
// over run — skip decisions are a pure function of (models, query, seed).
func TestEarlyStopDeterministicSkips(t *testing.T) {
	tb := dataset.SynthTWI(3200, 11)
	const k = 4
	cfg := testCfg(k)
	cfg.EarlyStopRelErr = 0.5
	cfg.MinShards = 2
	e := trainEnsemble(t, tb, cfg)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 24, Seed: 19})

	first, err := e.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	visited1, skipped1 := e.EarlyStopStats()
	if skipped1 == 0 {
		t.Fatal("loose EarlyStopRelErr skipped nothing — early termination never engaged")
	}
	if visited1 == 0 || visited1+skipped1 != uint64(k*len(w.Queries)) {
		t.Fatalf("visited %d + skipped %d != %d shard visits", visited1, skipped1, k*len(w.Queries))
	}

	e.ResetEarlyStopStats()
	second, err := e.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	visited2, skipped2 := e.EarlyStopStats()
	if visited1 != visited2 || skipped1 != skipped2 {
		t.Fatalf("skip decisions changed across runs: %d/%d then %d/%d", visited1, skipped1, visited2, skipped2)
	}
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(second[i]) {
			t.Fatalf("query %d: early-stop answers differ across runs: %v vs %v", i, first[i], second[i])
		}
		if !(first[i] >= 0 && first[i] <= 1) {
			t.Fatalf("query %d: non-physical estimate %v", i, first[i])
		}
	}
}

// TestEarlyStopOffIsExhaustive pins the default-off contract from the other
// side: EarlyStopRelErr=0 routes through the exhaustive merge and never
// skips a shard.
func TestEarlyStopOffIsExhaustive(t *testing.T) {
	tb := dataset.SynthTWI(2400, 11)
	const k = 3
	e := trainEnsemble(t, tb, testCfg(k))
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 8, Seed: 23})
	if _, err := e.EstimateBatch(w.Queries); err != nil {
		t.Fatal(err)
	}
	visited, skipped := e.EarlyStopStats()
	if skipped != 0 {
		t.Fatalf("early stop off but %d shard visits skipped", skipped)
	}
	if visited != uint64(k*len(w.Queries)) {
		t.Fatalf("visited %d shard pairs, want %d", visited, k*len(w.Queries))
	}
}

// TestFallbackAnswersForBrokenShard wedges one shard with a model bound to
// the wrong table (every estimate against it errors — the stale-model
// failure a hot swap can race into) and checks the guard cascade silently
// answers that shard's contribution, while a fallback-less ensemble
// surfaces the error. It runs on the exhaustive merge and on the early-stop
// path, whose shard visits carry variances; with the default MinShards of
// 2, every query visits the wedged slot 1.
func TestFallbackAnswersForBrokenShard(t *testing.T) {
	for _, relErr := range []float64{0, 0.2} {
		t.Run(fmt.Sprintf("earlystop=%v", relErr), func(t *testing.T) {
			testFallbackAnswersForBrokenShard(t, relErr)
		})
	}
}

func testFallbackAnswersForBrokenShard(t *testing.T, relErr float64) {
	tb := dataset.SynthTWI(2400, 11)
	const k = 3
	cfg := testCfg(k)
	cfg.EarlyStopRelErr = relErr
	cfg.Fallback = true
	cfg.FallbackSamples = 500
	e := trainEnsemble(t, tb, cfg)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 8, Seed: 29})

	other := dataset.SynthTWI(600, 31)
	otherCfg := testCfg(1)
	wrong, err := core.Train(other, otherCfg.Config)
	if err != nil {
		t.Fatal(err)
	}

	// ReplaceShard must reject a model bound to a foreign table outright.
	if err := e.ReplaceShard(1, wrong); err == nil {
		t.Fatal("ReplaceShard accepted a model bound to a different table")
	}

	// Wedge slot 1 behind the public API's back to simulate the stale-model
	// window, then estimate: the cascade answers, every result physical.
	st := e.st.Load()
	slots := make([]*shardSlot, len(st.slots))
	copy(slots, st.slots)
	bad := *slots[1]
	bad.model = wrong
	slots[1] = &bad
	e.st.Store(&state{slots: slots, order: visitOrder(slots)})

	ests, err := e.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatalf("fallback ensemble failed: %v", err)
	}
	for i, v := range ests {
		if !(v >= 0 && v <= 1) {
			t.Fatalf("query %d: non-physical fallback-merged estimate %v", i, v)
		}
	}

	// Same wedge without fallbacks: the error must surface, not be hidden.
	noFBCfg := testCfg(k)
	noFBCfg.EarlyStopRelErr = relErr
	noFB := trainEnsemble(t, tb, noFBCfg)
	st = noFB.st.Load()
	slots = make([]*shardSlot, len(st.slots))
	copy(slots, st.slots)
	bad = *slots[1]
	bad.model = wrong
	slots[1] = &bad
	noFB.st.Store(&state{slots: slots, order: visitOrder(slots)})
	if _, err := noFB.EstimateBatch(w.Queries); err == nil {
		t.Fatal("fallback-less ensemble silently answered with a broken shard")
	}
}

// TestEnsembleSaveLoadRoundTrip pins persistence: a loaded ensemble answers
// bit-identically to the one that was saved, and the loader rejects tables
// whose partition no longer matches.
func TestEnsembleSaveLoadRoundTrip(t *testing.T) {
	tb := dataset.SynthTWI(2400, 11)
	const k = 3
	e := trainEnsemble(t, tb, testCfg(k))
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 12, Seed: 37})
	want, err := e.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !IsEnsemble(buf.Bytes()) {
		t.Fatal("saved ensemble lacks the magic prefix")
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), tb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("query %d: loaded %v != saved %v", i, got[i], want[i])
		}
	}

	smaller := dataset.SynthTWI(2000, 11)
	if _, err := Load(bytes.NewReader(buf.Bytes()), smaller); err == nil {
		t.Fatal("Load accepted a table with a different partition")
	}
}

// TestShardedEstimateAllocBudget is the CI-gated allocation budget of the
// sharded serving path: a warm K-shard batched estimate must stay within
// K × the single-model budget (32 allocations per 32-query batch), on both
// the exhaustive and the early-termination paths.
func TestShardedEstimateAllocBudget(t *testing.T) {
	prev := vecmath.Parallelism(1)
	defer vecmath.Parallelism(prev)

	tb := dataset.SynthTWI(2400, 11)
	const k = 4
	cfg := testCfg(k)
	cfg.MassCacheSize = 256
	cfg.Workers = 1
	e := trainEnsemble(t, tb, cfg)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 32, Seed: 43})
	const budget = k * 32

	if _, err := e.EstimateBatch(w.Queries); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		if _, err := e.EstimateBatch(w.Queries); err != nil {
			t.Fatal(err)
		}
	})
	if n > budget {
		t.Fatalf("steady-state sharded EstimateBatch allocates %v per op, budget %d", n, budget)
	}

	es := trainEnsembleEarlyStop(t, tb, cfg)
	if _, err := es.EstimateBatch(w.Queries); err != nil {
		t.Fatal(err)
	}
	n = testing.AllocsPerRun(10, func() {
		if _, err := es.EstimateBatch(w.Queries); err != nil {
			t.Fatal(err)
		}
	})
	if n > budget {
		t.Fatalf("steady-state early-stop EstimateBatch allocates %v per op, budget %d", n, budget)
	}
}

func trainEnsembleEarlyStop(t *testing.T, tb *dataset.Table, cfg Config) *Ensemble {
	t.Helper()
	cfg.EarlyStopRelErr = 0.25
	return trainEnsemble(t, tb, cfg)
}

// TestEnsembleSwapRaceStress hammers the hot-swap path under the race
// detector: estimate batches stream against the ensemble while shard models
// are retrained and swapped in via ReplaceShard. Answers during the storm
// only need to be physical (the model set is changing under the batches);
// the point is that no read tears and no lock inverts.
func TestEnsembleSwapRaceStress(t *testing.T) {
	tb := dataset.SynthTWI(1600, 11)
	const k = 2
	cfg := testCfg(k)
	cfg.Fallback = true
	cfg.FallbackSamples = 400
	e := trainEnsemble(t, tb, cfg)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 8, Seed: 47})
	seeds := make([]int64, len(w.Queries))
	for i, q := range w.Queries {
		seeds[i] = e.QuerySeed(q)
	}

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ests, err := e.EstimateBatchSeeded(w.Queries, seeds)
				if err != nil {
					errCh <- err
					return
				}
				for _, v := range ests {
					if !(v >= 0 && v <= 1) {
						errCh <- errNonPhysical{v}
						return
					}
				}
			}
		}()
	}

	swapCfg := testCfg(k)
	swapCfg.Epochs = 1
	for round := 0; round < 2; round++ {
		for si := 0; si < k; si++ {
			cc := swapCfg.Config
			cc.Seed = swapCfg.Seed + int64(si) + int64(100*(round+1))
			m, err := core.Train(e.ShardTable(si), cc)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.ReplaceShard(si, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

type errNonPhysical struct{ v float64 }

func (e errNonPhysical) Error() string { return "non-physical estimate during swap storm" }
