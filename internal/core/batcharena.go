package core

import (
	"errors"
	"fmt"
	"math"

	"iam/internal/ar"
	"iam/internal/query"
)

// Constraint arenas behind the batched estimate path. buildConstraints used
// to allocate a fresh []ar.Constraint per query plus one heap box per
// constraint (interface boxing of the value-typed constraint structs was the
// dominant per-op allocation in BenchmarkEstimateBatch). A batchScratch owns
// typed arenas for every constraint kind and boxes *pointers* into them —
// the pointer method set of each constraint type includes its value-receiver
// Fill, so a *RangeConstraint satisfies ar.Constraint without copying, and
// boxing an existing pointer never allocates. Arenas grow by append; when an
// append reallocates the backing, previously boxed pointers keep aiming at
// the old array, which stays correct because constraint values are immutable
// once built. In steady state (warm capacities, warm mass cache) a whole
// batch builds with zero heap allocations.
type batchScratch struct {
	cons    []ar.Constraint   // nq*nCols backing, re-aimed per query
	pending [][]ar.Constraint // queries that need sampling this call
	seeds   []int64           // their per-query stream seeds
	slots   []int             // their positions in the caller's output

	rcs []ar.RangeConstraint    // arena: range constraints
	wcs []ar.WeightConstraint   // arena: §5.2 weighted constraints
	fcs []ar.FactoredConstraint // arena: factored-column constraints
}

// prep sizes the scratch for nq queries over nCols AR columns and resets the
// arenas. The constraint backing is cleared because wildcards are expressed
// as nil entries.
func (bs *batchScratch) prep(nq, nCols int) {
	n := nq * nCols
	if cap(bs.cons) < n {
		bs.cons = make([]ar.Constraint, n)
	}
	bs.cons = bs.cons[:n]
	clear(bs.cons)
	if cap(bs.pending) < nq {
		bs.pending = make([][]ar.Constraint, 0, nq)
		bs.seeds = make([]int64, 0, nq)
		bs.slots = make([]int, 0, nq)
	}
	bs.pending = bs.pending[:0]
	bs.seeds = bs.seeds[:0]
	bs.slots = bs.slots[:0]
	bs.rcs = bs.rcs[:0]
	bs.wcs = bs.wcs[:0]
	bs.fcs = bs.fcs[:0]
}

// consRow returns query i's constraint slice inside the shared backing.
func (bs *batchScratch) consRow(i, nCols int) []ar.Constraint {
	return bs.cons[i*nCols : (i+1)*nCols]
}

// rangeCon boxes a RangeConstraint out of the arena.
//
// iam:noalloc
func (bs *batchScratch) rangeCon(lo, hi int) ar.Constraint {
	bs.rcs = append(bs.rcs, ar.RangeConstraint{Lo: lo, Hi: hi})
	return &bs.rcs[len(bs.rcs)-1]
}

// weightCon boxes a WeightConstraint over wts out of the arena. wts must not
// be mutated afterwards (it is typically a shared mass-cache entry).
//
// iam:noalloc
func (bs *batchScratch) weightCon(wts []float64) ar.Constraint {
	bs.wcs = append(bs.wcs, ar.WeightConstraint{W: wts})
	return &bs.wcs[len(bs.wcs)-1]
}

// factoredCon boxes a FactoredConstraint out of the arena.
//
// iam:noalloc
func (bs *batchScratch) factoredCon(fc ar.FactoredConstraint) ar.Constraint {
	bs.fcs = append(bs.fcs, fc)
	return &bs.fcs[len(bs.fcs)-1]
}

// getBatchScratch checks a constraint scratch out of the pool (or builds a
// fresh one). Callers must return it with putBatchScratch once the estimate
// that reads its arenas has returned.
func (m *Model) getBatchScratch() *batchScratch {
	m.poolMu.Lock()
	var bs *batchScratch
	if n := len(m.bscratch); n > 0 {
		bs = m.bscratch[n-1]
		m.bscratch[n-1] = nil
		m.bscratch = m.bscratch[:n-1]
	}
	m.poolMu.Unlock()
	if bs == nil {
		bs = &batchScratch{}
	}
	return bs
}

// putBatchScratch returns a scratch to the pool for reuse.
func (m *Model) putBatchScratch(bs *batchScratch) {
	m.poolMu.Lock()
	m.bscratch = append(m.bscratch, bs)
	m.poolMu.Unlock()
}

// errNaNBound rejects a query interval with a NaN endpoint: NaN compares
// false against every value, so no side of it has a meaning. query.Parse
// never produces one; hand-built queries can.
var errNaNBound = errors.New("core: query interval has a NaN bound")

// buildConstraintsInto performs the query construction q → q′ of §5.1 and
// attaches the bias-correction weights of §5.2, writing into cons (one slot
// per AR column, nil = wildcard) and boxing every constraint out of the
// scratch arenas. The warm path — range/factored predicates and mass-cache
// hits — allocates nothing; the remaining weight-vector builds are one-time
// per distinct interval (the vector is then cached) or ablation-only.
//
// iam:noalloc
func (m *Model) buildConstraintsInto(q *query.Query, bs *batchScratch, cons []ar.Constraint) error {
	if q.Table != m.table {
		//lint:ignore noalloc cold error path
		return fmt.Errorf("core: query targets table %q, model trained on %q", q.Table.Name, m.table.Name)
	}
	for ci, r := range q.Ranges {
		if r == nil {
			continue // unqueried → wildcard skip
		}
		if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) {
			return errNaNBound
		}
		info := &m.cols[ci]
		if r.Lo > r.Hi {
			//lint:ignore noalloc boxing the zero-size EmptyConstraint reuses the runtime's shared zero base, no heap allocation
			cons[info.arFirst] = ar.EmptyConstraint{}
			continue
		}
		switch info.kind {
		case kindGMM:
			// Effective closed interval: open endpoints nudge inward so
			// the empirical mode honours </> semantics exactly.
			lo, hi := r.Lo, r.Hi
			if !r.LoInc {
				lo = math.Nextafter(lo, math.Inf(1))
			}
			if !r.HiInc {
				hi = math.Nextafter(hi, math.Inf(-1))
			}
			k := info.gm.K()
			if m.cfg.Uncorrected {
				//lint:ignore noalloc ablation-only path (Uncorrected)
				wts := make([]float64, k)
				for j := range wts {
					wts[j] = 1
				}
				cons[info.arFirst] = bs.weightCon(wts)
				continue
			}
			if wts, ok := m.massCacheGet(ci, r); ok {
				cons[info.arFirst] = bs.weightCon(wts)
				continue
			}
			//lint:ignore noalloc one-time per distinct interval; the vector is cached below
			wts := make([]float64, k)
			switch m.cfg.MassMode {
			case MassMonteCarlo:
				info.sampler.Mass(lo, hi, wts)
			case MassExact:
				info.gm.RangeMassExact(lo, hi, wts)
			case MassEmpirical:
				info.empirical.Mass(lo, hi, wts)
			}
			m.massCachePut(ci, r, wts)
			cons[info.arFirst] = bs.weightCon(wts)
		case kindReduced:
			lo, hi := r.Lo, r.Hi
			if !r.LoInc {
				lo = math.Nextafter(lo, math.Inf(1))
			}
			if !r.HiInc {
				hi = math.Nextafter(hi, math.Inf(-1))
			}
			//lint:ignore noalloc reduced columns are the §6.6 ablation path
			wts := make([]float64, info.reducer.K())
			if m.cfg.Uncorrected {
				for j := range wts {
					wts[j] = 1
				}
			} else {
				info.reducer.RangeMass(lo, hi, wts)
			}
			cons[info.arFirst] = bs.weightCon(wts)
		case kindPassthrough, kindFactored:
			loCode, hiCode, ok, err := info.enc.RangeToCodes(r.Lo, r.Hi, r.LoInc, r.HiInc)
			if err != nil {
				return err
			}
			if !ok {
				//lint:ignore noalloc boxing the zero-size EmptyConstraint reuses the runtime's shared zero base, no heap allocation
				cons[info.arFirst] = ar.EmptyConstraint{}
				continue
			}
			if info.kind == kindPassthrough {
				cons[info.arFirst] = bs.rangeCon(loCode, hiCode)
			} else {
				for p := 0; p < info.arCount; p++ {
					cons[info.arFirst+p] = bs.factoredCon(ar.FactoredConstraint{
						Spec: info.factor, Part: p, FirstCol: info.arFirst,
						Lo: loCode, Hi: hiCode,
					})
				}
			}
		}
	}
	return nil
}
