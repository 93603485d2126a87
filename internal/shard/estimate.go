package shard

import (
	"fmt"
	"math"

	"iam/internal/guard"
	"iam/internal/query"
	"iam/internal/vecmath"
)

// mergeScratch owns the per-call buffers of one batched ensemble estimate:
// the rebound sub-batch (query values re-aimed at a shard's sub-table, with
// Ranges shared), the content seeds of a nil-seed batch, the per-shard seed
// table and variance buffer, the queries still visiting shards, and the
// per-query merge accumulators. Scratches are pooled on the ensemble and
// reused, so a warm estimate allocates only what the per-shard model calls
// allocate.
type mergeScratch struct {
	qvals  []query.Query  // rebound query storage, one slot per batch query
	qptrs  []*query.Query // sub-batch view: qptrs[j] = &qvals[j]
	base   []int64        // per-batch-query content seeds (nil-seed calls)
	seeds  []int64        // per-sub-batch-position sampling seeds
	vars   []float64      // per-sub-batch-position sampling variances
	active []int          // batch indices still visiting shards
	acc    []float64      // Σ w_s · est_s per query
	varAcc []float64      // Σ w_s² · var_s per query
	wSum   []float64      // Σ w_s per query (over visited shards)
}

func (ms *mergeScratch) prep(nq int) {
	if cap(ms.qvals) < nq {
		ms.qvals = make([]query.Query, nq)
		ms.qptrs = make([]*query.Query, nq)
		ms.base = make([]int64, nq)
		ms.seeds = make([]int64, nq)
		ms.vars = make([]float64, nq)
		ms.active = make([]int, 0, nq)
		ms.acc = make([]float64, nq)
		ms.varAcc = make([]float64, nq)
		ms.wSum = make([]float64, nq)
	}
	ms.qvals = ms.qvals[:nq]
	ms.qptrs = ms.qptrs[:nq]
	ms.base = ms.base[:nq]
	ms.seeds = ms.seeds[:nq]
	ms.vars = ms.vars[:nq]
	ms.active = ms.active[:0]
	ms.acc = ms.acc[:nq]
	ms.varAcc = ms.varAcc[:nq]
	ms.wSum = ms.wSum[:nq]
	for i := 0; i < nq; i++ {
		ms.acc[i], ms.varAcc[i], ms.wSum[i] = 0, 0, 0
	}
}

// getScratch checks a merge scratch out of the pool (building one on first
// use); return it with putScratch.
func (e *Ensemble) getScratch() *mergeScratch {
	e.scratchMu.Lock()
	var ms *mergeScratch
	if n := len(e.scratches); n > 0 {
		ms = e.scratches[n-1]
		e.scratches[n-1] = nil
		e.scratches = e.scratches[:n-1]
	}
	e.scratchMu.Unlock()
	if ms == nil {
		ms = &mergeScratch{}
	}
	return ms
}

func (e *Ensemble) putScratch(ms *mergeScratch) {
	e.scratchMu.Lock()
	e.scratches = append(e.scratches, ms)
	e.scratchMu.Unlock()
}

// shardQuerySeed derives the sampling seed shard si uses for a query whose
// caller-assigned seed is base: shard 0 passes the base through unchanged —
// which pins Ensemble(K=1) bit-identical to the plain model under any
// caller-chosen seeds — and later shards decorrelate by a golden-ratio
// multiple, mirroring core's stream-derivation style.
func shardQuerySeed(base int64, si int) int64 {
	return base + int64(uint64(si)*0x9e3779b97f4a7c15)
}

// Estimate implements estimator.Estimator.
func (e *Ensemble) Estimate(q *query.Query) (float64, error) {
	res, err := e.EstimateBatch([]*query.Query{q})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// EstimateBatch implements estimator.BatchEstimator: every query is answered
// by the row-count-weighted merge of the per-shard estimates (exact in
// expectation, since selectivity is additive over the row partition), with
// variance-based early termination when Config.EarlyStopRelErr is set.
func (e *Ensemble) EstimateBatch(qs []*query.Query) ([]float64, error) {
	return e.EstimateBatchSeeded(qs, nil)
}

// EstimateBatchSeeded is EstimateBatch with caller-chosen per-query sampling
// seeds. A nil qseeds means the content seeds QuerySeed(q), read from the
// same state snapshot the visit loop uses, which reproduces EstimateBatch.
// Shard s derives its stream for query i from the base seed via
// shardQuerySeed, so estimates stay pure functions of (ensemble, query,
// seed) — independent of batch composition and of how many shards train or
// estimate concurrently.
//
// There is one visit loop. Shards are visited in the state's weight-
// descending order; each visit folds weight·estimate and weight²·variance
// into per-query accumulators. When EarlyStopRelErr > 0, a query that has
// visited at least earlyStopMinShards shards drops out of the batch as soon
// as its earlyStopZ·stderr half-interval is within EarlyStopRelErr of its
// running estimate; otherwise (zero, negative or NaN) every query visits
// every shard. The answer normalizes by the visited weight mass:
//
//	sel ≈ (Σ_visited w_s·est_s) / (Σ_visited w_s)
//
// which extrapolates the visited shards to a skipped tail. With equal shard
// weights the visit order is the slot order; where their floating-point sum
// is also exactly 1 (K ≤ 5 or K = 8, but not K = 6, 7, 9 or 10), the
// exhaustive answer is bit for bit Σ_s w_s·est_s in slot order, and for one
// shard the plain model's answer. Every decision here is a pure function of
// (shard models, queries, seeds): the visit order is fixed by the weights,
// per-(query, shard) streams come from shardQuerySeed regardless of
// sub-batch composition, and the threshold comparison reads only
// deterministic estimates and variances.
func (e *Ensemble) EstimateBatchSeeded(qs []*query.Query, qseeds []int64) ([]float64, error) {
	if qseeds != nil && len(qseeds) != len(qs) {
		return nil, fmt.Errorf("shard: %d seeds for %d queries", len(qseeds), len(qs))
	}
	st := e.st.Load()
	k := len(st.slots)
	out := make([]float64, len(qs))
	ms := e.getScratch()
	defer e.putScratch(ms)
	ms.prep(len(qs))
	if qseeds == nil {
		for i, q := range qs {
			ms.base[i] = st.slots[0].model.QuerySeed(q)
		}
		qseeds = ms.base
	}

	active := ms.active[:0]
	for i := range qs {
		active = append(active, i)
	}
	relErr := e.cfg.EarlyStopRelErr
	for round, si := range st.order {
		if len(active) == 0 {
			break
		}
		slot := st.slots[si]
		sub, seeds := ms.rebind(slot, qs, qseeds, active)
		ests, vars, err := e.estimateSlot(slot, sub, seeds, ms.vars[:len(sub)])
		if err != nil {
			return nil, err
		}
		w := slot.weight
		for j, qi := range active {
			ms.acc[qi] += float64(w * ests[j])
			ms.varAcc[qi] += float64(w * w * vars[j])
			ms.wSum[qi] += w
		}
		e.visited.Add(uint64(len(active)))
		visited := round + 1
		if !(relErr > 0) || visited < earlyStopMinShards || visited == k {
			continue
		}
		keep := active[:0]
		for _, qi := range active {
			mean := ms.acc[qi] / ms.wSum[qi]
			half := earlyStopZ * math.Sqrt(ms.varAcc[qi]) / ms.wSum[qi]
			if half > relErr*mean {
				keep = append(keep, qi)
			} else {
				e.skipped.Add(uint64(k - visited))
			}
		}
		active = keep
	}
	for i := range out {
		out[i] = vecmath.Clamp(ms.acc[i]/ms.wSum[i], 0, 1)
	}
	return out, nil
}

// rebind aims the scratch sub-batch at slot's sub-table: position j carries
// batch query active[j] with Ranges shared and Table swapped, and its stream
// seed is derived from that query's base seed, so shrinking the active set
// never moves a query onto a different stream.
func (ms *mergeScratch) rebind(slot *shardSlot, qs []*query.Query, qseeds []int64, active []int) ([]*query.Query, []int64) {
	for j, qi := range active {
		ms.qvals[j] = query.Query{Table: slot.table, Ranges: qs[qi].Ranges}
		ms.qptrs[j] = &ms.qvals[j]
		ms.seeds[j] = shardQuerySeed(qseeds[qi], slot.index)
	}
	return ms.qptrs[:len(active)], ms.seeds[:len(active)]
}

// estimateSlot runs one shard's batched estimate with each query's
// progressive-sampling variance (written into vars, len(qs)), degrading per
// shard to the guard-cascade fallback (when configured) if the model errors,
// and per query if the model returns a non-physical value — a stale or
// mid-swap shard degrades gracefully instead of failing the whole merge.
// Fallback answers are deterministic sample/histogram scans and report
// variance 0 — they tighten the interval rather than widening it, which only
// ever keeps *more* shards in the visit (the conservative direction).
//
// The model path is a pure function of (model, qs, seeds); the fallback,
// whose deadline reads the clock, runs only after the model has failed.
func (e *Ensemble) estimateSlot(slot *shardSlot, qs []*query.Query, seeds []int64, vars []float64) ([]float64, []float64, error) {
	ests, err := slot.model.EstimateBatchVarInto(vars, qs, seeds)
	if err != nil {
		if slot.fallback == nil {
			return nil, nil, err
		}
		clear(vars)
		ests, err = slot.fallback.EstimateBatch(qs)
		return ests, vars, err
	}
	for i, v := range ests {
		if guard.Valid(v) {
			continue
		}
		if slot.fallback == nil {
			return nil, nil, fmt.Errorf("shard: shard model returned invalid selectivity %v", v)
		}
		fixed, ferr := slot.fallback.Estimate(qs[i])
		if ferr != nil {
			return nil, nil, ferr
		}
		ests[i], vars[i] = fixed, 0
	}
	return ests, vars, nil
}
