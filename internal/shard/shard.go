// Package shard scales IAM horizontally: a relation is split into K
// contiguous row shards, one smaller IAM model is trained per shard (the
// shards train in parallel, coarse-grained — one goroutine per shard — on
// top of core's deterministic fine-grained pipeline), and queries are
// answered by estimating against every shard and combining the per-shard
// selectivities weighted by row count. Selectivity is additive over any row
// partition, so the merge is exact in expectation:
//
//	sel(q) = Σ_s (rows_s / rows_total) · sel_s(q)
//
// Every estimate walks one visit loop: shards are visited in descending
// row-weight order, and each visit contributes its estimate and its
// progressive-sampling variance to a running confidence interval. With
// variance-based early termination (Config.EarlyStopRelErr > 0) the
// remaining shards are skipped for a query once its interval is tighter than
// the requested relative error; without it every query visits every shard.
// Early termination is off by default; an ensemble of up to 5 (or 8)
// equally sized shards then answers bit for bit with the plain weighted
// merge, and an ensemble of one shard bit for bit with the plain core.Model
// path.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/guard"
	"iam/internal/pghist"
	"iam/internal/query"
	"iam/internal/sampling"
)

// Config controls ensemble construction. The embedded core.Config applies to
// every per-shard model; per-shard seeds are derived as Seed + shard index,
// so shard 0 trains exactly the model the plain path would.
type Config struct {
	core.Config

	// Shards is K, the number of row shards. 0 or 1 means a single shard
	// (the ensemble then degenerates to one plain model).
	Shards int
	// TrainParallel caps how many shards train concurrently, one goroutine
	// per shard. 0 or 1 trains the shards sequentially on the caller;
	// negative means GOMAXPROCS. Training is embarrassingly parallel across
	// shards — each shard's trajectory is a pure function of (its rows, its
	// seed) — so this knob never changes any trained parameter.
	TrainParallel int

	// EarlyStopRelErr enables variance-based early termination when > 0: a
	// query stops visiting shards once its running confidence half-interval
	// (earlyStopZ standard errors, after earlyStopMinShards visits) drops
	// below EarlyStopRelErr times its running estimate. 0 (the default)
	// disables early termination: every query visits every shard.
	EarlyStopRelErr float64

	// Fallback builds a per-shard guard cascade (uniform sample of up to
	// fallbackSamples rows → histogram over the shard's rows). When a
	// shard's model errors or returns a non-physical estimate — e.g. a stale
	// model mid hot-swap — that shard's contribution is answered by its
	// fallback so the merge stays exact, instead of failing the whole batch.
	Fallback bool
}

// The fixed parameters of early termination and of the per-shard fallback.
const (
	// earlyStopZ is the z-multiplier of the confidence half-interval (≈95%
	// under a normal approximation).
	earlyStopZ = 2
	// earlyStopMinShards is the number of shards every query visits before
	// early termination may trigger (an ensemble of fewer shards visits all).
	earlyStopMinShards = 2
	// fallbackSamples is the uniform-sample size of a shard's fallback tier,
	// capped at the shard's row count. The fallback tiers have no timeout.
	fallbackSamples = 2000
)

// shardSlot is one shard of an ensemble state: the sub-table view of the
// shard's rows, its trained model, its merge weight, and (optionally) its
// guard-cascade fallback. Slots are immutable after publication — a hot swap
// builds a new slot and a new state around it.
type shardSlot struct {
	index    int // shard position in the partition, fixed for the ensemble's life
	model    *core.Model
	table    *dataset.Table // aliased sub-table (or the parent when K == 1)
	lo, hi   int            // parent row range [lo, hi)
	weight   float64        // (hi - lo) / parent rows
	fallback *guard.Guarded // nil unless Config.Fallback
}

// state is one immutable generation of the ensemble: the slot list plus the
// weight-descending visit order every estimate walks. Published
// via Ensemble.state; never mutated after Store.
type state struct {
	slots []*shardSlot
	order []int // slot indices, descending weight, ties by ascending index
}

// Ensemble is a row-sharded IAM estimator. It implements
// estimator.Estimator, estimator.BatchEstimator and estimator.Sizer, and
// mirrors the core.Model surface (QuerySeed, EstimateBatchSeeded,
// ReleaseWorkers, Save), so the serving layer can install an ensemble
// wherever a single model fits.
type Ensemble struct {
	table *dataset.Table
	cfg   Config
	name  string

	// st is the current immutable state; estimates Load it once and work on
	// that snapshot, so a concurrent ReplaceShard never tears a batch.
	st atomic.Pointer[state]

	// scratchMu guards the pool of merge scratches. It is a leaf lock: held
	// only inside getScratch/putScratch, never across a model call.
	scratchMu sync.Mutex
	scratches []*mergeScratch // guarded by scratchMu

	// visited and skipped count (query, shard) pairs estimated vs. skipped
	// by early termination — the skipped-shard fraction benchmarks report.
	visited atomic.Uint64
	skipped atomic.Uint64
}

// Partition splits t into k contiguous sub-tables sharing t's column
// storage: shard s views rows [s·n/k, (s+1)·n/k), so the shards are disjoint
// and their union is exactly t — the invariant the exact merge rests on.
// k == 1 returns t itself, preserving query table identity for the
// degenerate ensemble.
func Partition(t *dataset.Table, k int) []*dataset.Table {
	if k <= 1 {
		return []*dataset.Table{t}
	}
	n := t.NumRows()
	parts := make([]*dataset.Table, k)
	for s := 0; s < k; s++ {
		lo, hi := s*n/k, (s+1)*n/k
		cols := make([]*dataset.Column, len(t.Columns))
		for ci, c := range t.Columns {
			sc := &dataset.Column{Name: c.Name, Kind: c.Kind, Card: c.Card, Labels: c.Labels}
			if c.Kind == dataset.Categorical {
				sc.Ints = c.Ints[lo:hi:hi]
			} else {
				sc.Floats = c.Floats[lo:hi:hi]
			}
			cols[ci] = sc
		}
		parts[s] = &dataset.Table{Name: t.Name, Columns: cols}
	}
	return parts
}

// Train fits one IAM model per shard and assembles the ensemble.
func Train(t *dataset.Table, cfg Config) (*Ensemble, error) {
	return TrainContext(context.Background(), t, cfg)
}

// TrainContext is Train with cancellation. Shards train concurrently up to
// cfg.TrainParallel goroutines; shard s trains on its sub-table with seed
// cfg.Seed + s through the unmodified core pipeline, so every shard's
// trajectory is bit-identical no matter how many shards train at once.
func TrainContext(ctx context.Context, t *dataset.Table, cfg Config) (*Ensemble, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	k := cfg.Shards
	if t.NumRows() < k {
		return nil, fmt.Errorf("shard: %d shards for %d rows", k, t.NumRows())
	}
	parts := Partition(t, k)

	models := make([]*core.Model, k)
	errs := make([]error, k)
	par := trainParallelism(cfg.TrainParallel, k)
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for si := range parts {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			models[si], errs[si] = core.TrainContext(ctx, parts[si], shardCoreConfig(cfg, si, k))
		}(si)
	}
	wg.Wait()
	for si, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard: training shard %d/%d: %w", si, k, err)
		}
	}
	return assemble(t, cfg, parts, models)
}

// shardCoreConfig derives shard si's core configuration: the shared settings
// with the shard-indexed seed, a shard-suffixed checkpoint path, and — for
// k > 1 — OnEpoch cleared (the callback contract is single-model; shards
// training concurrently must not funnel into one callback).
func shardCoreConfig(cfg Config, si, k int) core.Config {
	cc := cfg.Config
	cc.Seed += int64(si)
	if k > 1 {
		cc.OnEpoch = nil
		if cc.CheckpointPath != "" {
			cc.CheckpointPath = fmt.Sprintf("%s.shard%d", cc.CheckpointPath, si)
		}
	}
	return cc
}

// trainParallelism resolves the TrainParallel knob against the shard count.
func trainParallelism(p, k int) int {
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p < 1 {
		p = 1
	}
	if p > k {
		p = k
	}
	return p
}

// assemble builds the Ensemble around trained per-shard models.
func assemble(t *dataset.Table, cfg Config, parts []*dataset.Table, models []*core.Model) (*Ensemble, error) {
	k := len(parts)
	e := &Ensemble{table: t, cfg: cfg, name: fmt.Sprintf("IAMx%d", k)}
	slots := make([]*shardSlot, k)
	n := t.NumRows()
	for si := range slots {
		lo, hi := si*n/k, (si+1)*n/k
		if k == 1 {
			lo, hi = 0, n
		}
		slot := &shardSlot{
			index:  si,
			model:  models[si],
			table:  parts[si],
			lo:     lo,
			hi:     hi,
			weight: float64(hi-lo) / float64(n),
		}
		if cfg.Fallback {
			fb, err := buildFallback(parts[si], cfg, si)
			if err != nil {
				return nil, err
			}
			slot.fallback = fb
		}
		slots[si] = slot
	}
	e.st.Store(&state{slots: slots, order: visitOrder(slots)})
	return e, nil
}

// buildFallback constructs shard si's guard cascade: a uniform sample of the
// shard's rows backed by a histogram over the same rows. Both tiers see only
// this shard, so a fallback answer weighs into the merge exactly like a
// model answer would.
func buildFallback(part *dataset.Table, cfg Config, si int) (*guard.Guarded, error) {
	samp, err := sampling.New(part, min(fallbackSamples, part.NumRows()), cfg.Seed+int64(si)+5)
	if err != nil {
		return nil, fmt.Errorf("shard: shard %d sampling fallback: %w", si, err)
	}
	hist, err := pghist.New(part, pghist.Config{})
	if err != nil {
		return nil, fmt.Errorf("shard: shard %d histogram fallback: %w", si, err)
	}
	return guard.New(guard.Config{Name: fmt.Sprintf("shard%d-fallback", si)}, samp, hist)
}

// visitOrder returns slot indices sorted by descending weight, ties broken
// by ascending index — a hand-rolled insertion sort so the order (and with
// it every early-termination decision) is a deterministic function of the
// weights alone, independent of sort-library internals.
func visitOrder(slots []*shardSlot) []int {
	order := make([]int, len(slots))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			// Equal-sized shards have bit-identical weights; the index
			// tie-break keeps the order total and deterministic.
			swap := slots[a].weight < slots[b].weight || (slots[a].weight == slots[b].weight && a > b)
			if !swap {
				break
			}
			order[j-1], order[j] = b, a
		}
	}
	return order
}

// Name implements estimator.Estimator.
func (e *Ensemble) Name() string { return e.name }

// NumShards returns K.
func (e *Ensemble) NumShards() int { return len(e.st.Load().slots) }

// ShardTable returns the sub-table view shard si's model is bound to — the
// table a replacement model for si must be trained on.
func (e *Ensemble) ShardTable(si int) *dataset.Table {
	st := e.st.Load()
	if si < 0 || si >= len(st.slots) {
		return nil
	}
	return st.slots[si].table
}

// ReplaceShard hot-swaps shard si's model: a new immutable state with the
// new slot is published atomically, so concurrent estimates see either the
// old ensemble or the new one in full, never a mix within a single shard
// visit. The replacement must be bound to the shard's sub-table (trained on
// ShardTable(si)).
func (e *Ensemble) ReplaceShard(si int, m *core.Model) error {
	if m == nil {
		return fmt.Errorf("shard: nil replacement model for shard %d", si)
	}
	for {
		old := e.st.Load()
		if si < 0 || si >= len(old.slots) {
			return fmt.Errorf("shard: shard %d out of range [0,%d)", si, len(old.slots))
		}
		prev := old.slots[si]
		if m.Table() != prev.table {
			return fmt.Errorf("shard: replacement for shard %d is bound to a different table", si)
		}
		slots := make([]*shardSlot, len(old.slots))
		copy(slots, old.slots)
		slots[si] = &shardSlot{
			index: prev.index, model: m,
			table: prev.table, lo: prev.lo, hi: prev.hi,
			weight: prev.weight, fallback: prev.fallback,
		}
		next := &state{slots: slots, order: visitOrder(slots)}
		if e.st.CompareAndSwap(old, next) {
			prev.model.ReleaseWorkers()
			return nil
		}
	}
}

// ShardModel returns shard si's current model (nil when out of range).
func (e *Ensemble) ShardModel(si int) *core.Model {
	st := e.st.Load()
	if si < 0 || si >= len(st.slots) {
		return nil
	}
	return st.slots[si].model
}

// QuerySeed derives the content-hashed sampling seed of q — delegated to
// shard 0's model, whose seed is the ensemble's base seed, so a one-shard
// ensemble hands out exactly the seeds the plain model would.
func (e *Ensemble) QuerySeed(q *query.Query) int64 {
	return e.st.Load().slots[0].model.QuerySeed(q)
}

// ReleaseWorkers drops every shard model's pooled sessions and scratch
// buffers (and this ensemble's merge scratches); everything is rebuilt
// lazily on the next estimate. The serving layer calls this when retiring an
// ensemble version.
func (e *Ensemble) ReleaseWorkers() {
	for _, slot := range e.st.Load().slots {
		slot.model.ReleaseWorkers()
	}
	e.scratchMu.Lock()
	e.scratches = nil
	e.scratchMu.Unlock()
}

// SizeBytes implements estimator.Sizer: the sum of the shard model sizes.
func (e *Ensemble) SizeBytes() int {
	s := 0
	for _, slot := range e.st.Load().slots {
		s += slot.model.SizeBytes()
	}
	return s
}

// EarlyStopStats reports the running (query, shard) visit and skip counters
// since construction (or the last ResetEarlyStopStats): visited counts
// shard estimates actually run, skipped counts shard visits saved by early
// termination. skipped/(visited+skipped) is the skipped-shard fraction.
func (e *Ensemble) EarlyStopStats() (visited, skipped uint64) {
	return e.visited.Load(), e.skipped.Load()
}

// ResetEarlyStopStats zeroes the visit/skip counters.
func (e *Ensemble) ResetEarlyStopStats() {
	e.visited.Store(0)
	e.skipped.Store(0)
}
