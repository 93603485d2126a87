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
// Ranges shared), the per-shard seed table, and the early-termination
// accumulators. Scratches are pooled on the ensemble and reused, so a warm
// estimate allocates only what the per-shard model calls allocate.
type mergeScratch struct {
	qvals  []query.Query  // rebound query storage, one slot per batch query
	qptrs  []*query.Query // sub-batch view: qptrs[j] = &qvals[j]
	seeds  []int64        // per-sub-batch-position sampling seeds
	active []int          // early stop: batch indices still visiting shards
	acc    []float64      // Σ w_s · est_s per query
	varAcc []float64      // Σ w_s² · var_s per query
	wSum   []float64      // Σ w_s per query (over visited shards)
}

func (ms *mergeScratch) prep(nq int) {
	if cap(ms.qvals) < nq {
		ms.qvals = make([]query.Query, nq)
		ms.qptrs = make([]*query.Query, nq)
		ms.seeds = make([]int64, nq)
		ms.active = make([]int, 0, nq)
		ms.acc = make([]float64, nq)
		ms.varAcc = make([]float64, nq)
		ms.wSum = make([]float64, nq)
	}
	ms.qvals = ms.qvals[:nq]
	ms.qptrs = ms.qptrs[:nq]
	ms.seeds = ms.seeds[:nq]
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

// positionSeed replicates core's position-derived stream (splitmix64 of the
// model seed and the query's batch position) so the early-termination path
// can hand a shard the very seeds the shard's model would derive for itself
// on the exhaustive path — sub-batch compaction never shifts a query onto a
// different stream.
func positionSeed(seed int64, qi int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(qi)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
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
// seeds (nil reproduces EstimateBatch). Shard s derives its stream for query
// i from qseeds[i] via shardQuerySeed, so estimates stay pure functions of
// (ensemble, query, seed) — independent of batch composition and of how many
// shards train or estimate concurrently.
func (e *Ensemble) EstimateBatchSeeded(qs []*query.Query, qseeds []int64) ([]float64, error) {
	if qseeds != nil && len(qseeds) != len(qs) {
		return nil, fmt.Errorf("shard: %d seeds for %d queries", len(qseeds), len(qs))
	}
	st := e.st.Load()
	if e.cfg.EarlyStopRelErr > 0 && len(st.slots) > 1 {
		return e.estimateEarlyStop(st, qs, qseeds)
	}
	return e.estimateMerge(st, qs, qseeds)
}

// estimateMerge is the exhaustive path: every shard estimates every query in
// slot order, and out[i] accumulates weight·estimate. With one shard the
// weight is exactly 1.0 and the accumulator starts at +0.0, so the sums are
// bit-identical to the single model's answers.
func (e *Ensemble) estimateMerge(st *state, qs []*query.Query, qseeds []int64) ([]float64, error) {
	out := make([]float64, len(qs))
	if len(st.slots) == 1 && st.slots[0].table == e.table {
		// Degenerate ensemble: the slot views the parent table itself, so
		// queries pass through unrebound and shard 0's seed derivation is the
		// identity — the whole path below would only re-derive the same call.
		ests, err := e.estimateSlot(st.slots[0], qs, qseeds, nil)
		if err != nil {
			return nil, err
		}
		copy(out, ests)
		e.visited.Add(uint64(len(qs)))
		return out, nil
	}
	ms := e.getScratch()
	defer e.putScratch(ms)
	ms.prep(len(qs))
	for _, slot := range st.slots {
		sub, seeds := ms.rebindAll(slot, qs, qseeds)
		ests, err := e.estimateSlot(slot, sub, seeds, nil)
		if err != nil {
			return nil, err
		}
		for i, v := range ests {
			out[i] += slot.weight * v
		}
	}
	e.visited.Add(uint64(len(qs) * len(st.slots)))
	return out, nil
}

// rebindAll aims the scratch sub-batch at slot's sub-table: position i holds
// query i with Ranges shared and Table swapped, plus the shard-derived seed
// table (nil when the caller passed no seeds — each shard model then derives
// its own position seeds, decorrelated by its shard-indexed model seed).
func (ms *mergeScratch) rebindAll(slot *shardSlot, qs []*query.Query, qseeds []int64) ([]*query.Query, []int64) {
	si := slot.index
	for i, q := range qs {
		ms.qvals[i] = query.Query{Table: slot.table, Ranges: q.Ranges}
		ms.qptrs[i] = &ms.qvals[i]
		if qseeds != nil {
			ms.seeds[i] = shardQuerySeed(qseeds[i], si)
		}
	}
	if qseeds == nil {
		return ms.qptrs[:len(qs)], nil
	}
	return ms.qptrs[:len(qs)], ms.seeds[:len(qs)]
}

// estimateSlot runs one shard's batched estimate, degrading per shard to the
// guard-cascade fallback (when configured) if the model errors, and per
// query if the model returns a non-physical value — a stale or mid-swap
// shard degrades gracefully instead of failing the whole merge. A non-nil
// varOut (the early-termination path) also receives each query's
// progressive-sampling variance. Fallback answers are deterministic
// sample/histogram scans and report variance 0 — they tighten the interval
// rather than widening it, which only ever keeps *more* shards in the visit
// (the conservative direction).
//
// The model path is a pure function of (model, qs, seeds); the fallback,
// whose deadline reads the clock, runs only after the model has failed.
func (e *Ensemble) estimateSlot(slot *shardSlot, qs []*query.Query, seeds []int64, varOut []float64) ([]float64, error) {
	var ests, vars []float64
	var err error
	if varOut == nil {
		ests, err = slot.model.EstimateBatchSeeded(qs, seeds)
	} else {
		ests, vars, err = slot.model.EstimateBatchVarSeeded(qs, seeds)
	}
	if err != nil {
		if slot.fallback == nil {
			return nil, err
		}
		clear(varOut)
		return slot.fallback.EstimateBatch(qs)
	}
	copy(varOut, vars)
	for i, v := range ests {
		if guard.Valid(v) {
			continue
		}
		if slot.fallback == nil {
			return nil, fmt.Errorf("shard: shard model returned invalid selectivity %v", v)
		}
		fixed, ferr := slot.fallback.Estimate(qs[i])
		if ferr != nil {
			return nil, ferr
		}
		ests[i] = fixed
		if varOut != nil {
			varOut[i] = 0
		}
	}
	return ests, nil
}

// estimateEarlyStop is the variance-based early-termination path (tentpole):
// shards are visited in descending row-weight order; each visit folds
// weight·estimate and weight²·variance into per-query accumulators; and once
// a query has visited at least MinShards shards, it drops out of the batch
// as soon as its z·stderr half-interval is within EarlyStopRelErr of its
// running estimate. The final answer normalizes by the visited weight mass:
//
//	sel ≈ (Σ_visited w_s·est_s) / (Σ_visited w_s)
//
// which extrapolates the visited shards to the skipped tail and reduces to
// the exact merge when nothing is skipped (up to the normalization division;
// use EarlyStopRelErr = 0 for bitwise-exhaustive answers). Every decision
// here is a pure function of (shard models, queries, seeds): the visit order
// is fixed by the weights, per-(query, shard) streams come from
// shardQuerySeed/positionSeed regardless of sub-batch composition, and the
// threshold comparison reads only deterministic estimates and variances.
func (e *Ensemble) estimateEarlyStop(st *state, qs []*query.Query, qseeds []int64) ([]float64, error) {
	nq := len(qs)
	k := len(st.slots)
	out := make([]float64, nq)
	varBuf := make([]float64, nq)
	ms := e.getScratch()
	defer e.putScratch(ms)
	ms.prep(nq)

	active := ms.active[:0]
	for i := range qs {
		active = append(active, i)
	}
	relErr, z := e.cfg.EarlyStopRelErr, e.cfg.EarlyStopZ
	for round, si := range st.order {
		if len(active) == 0 {
			break
		}
		slot := st.slots[si]
		sub, seeds := ms.rebindActive(slot, qs, qseeds, active)
		ests, err := e.estimateSlot(slot, sub, seeds, varBuf)
		if err != nil {
			return nil, err
		}
		w := slot.weight
		for j, qi := range active {
			ms.acc[qi] += w * ests[j]
			ms.varAcc[qi] += w * w * varBuf[j]
			ms.wSum[qi] += w
		}
		e.visited.Add(uint64(len(active)))
		visited := round + 1
		if visited < e.cfg.MinShards || visited == k {
			continue
		}
		keep := active[:0]
		for _, qi := range active {
			mean := ms.acc[qi] / ms.wSum[qi]
			half := z * math.Sqrt(ms.varAcc[qi]) / ms.wSum[qi]
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

// rebindActive is rebindAll restricted to the still-active queries: sub-batch
// position j carries batch query active[j], with its stream seed derived
// from the query's *original* batch position (or caller seed), so shrinking
// the active set never moves a query onto a different stream.
func (ms *mergeScratch) rebindActive(slot *shardSlot, qs []*query.Query, qseeds []int64, active []int) ([]*query.Query, []int64) {
	si := slot.index
	for j, qi := range active {
		ms.qvals[j] = query.Query{Table: slot.table, Ranges: qs[qi].Ranges}
		ms.qptrs[j] = &ms.qvals[j]
		if qseeds != nil {
			ms.seeds[j] = shardQuerySeed(qseeds[qi], si)
		} else {
			ms.seeds[j] = positionSeed(slot.modelSeed, qi)
		}
	}
	return ms.qptrs[:len(active)], ms.seeds[:len(active)]
}
