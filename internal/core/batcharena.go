package core

import (
	"fmt"

	"iam/internal/ar"
	"iam/internal/query"
)

// batchScratch is the pooled constraint scratch of the batched estimate
// path: one constraint backing for the whole batch, the pending-query
// bookkeeping, and the ar.Arena every constraint and §5.2 weight vector is
// boxed out of. In steady state (warm capacities) a whole batch builds with
// zero heap allocations.
type batchScratch struct {
	cons    []ar.Constraint   // nq*nCols backing, re-aimed per query
	pending [][]ar.Constraint // queries that need sampling this call
	seeds   []int64           // their per-query stream seeds
	slots   []int             // their positions in the caller's output
	arena   ar.Arena
}

// prep sizes the scratch for nq queries over nCols AR columns and resets the
// arena. The constraint backing is cleared because wildcards are expressed
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
	bs.arena.Reset()
}

// consRow returns query i's constraint slice inside the shared backing.
func (bs *batchScratch) consRow(i, nCols int) []ar.Constraint {
	return bs.cons[i*nCols : (i+1)*nCols]
}

// getBatchScratch checks a constraint scratch out of the pool (or builds a
// fresh one). Callers must return it with putBatchScratch once the estimate
// that reads its arena has returned.
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

// buildConstraintsInto performs the query construction q → q′ of §5.1 and
// attaches the bias-correction weights of §5.2, writing into cons (one slot
// per AR column, nil = wildcard) through each column's codec and boxing
// every constraint out of a.
//
// iam:noalloc
func (m *Model) buildConstraintsInto(q *query.Query, a *ar.Arena, cons []ar.Constraint) error {
	if q.Table != m.table {
		//lint:ignore noalloc cold error path
		return fmt.Errorf("core: query targets table %q, model trained on %q", q.Table.Name, m.table.Name)
	}
	for ci, r := range q.Ranges {
		if r == nil {
			continue // unqueried → wildcard skip
		}
		if err := m.cols[ci].Constrain(*r, cons, a); err != nil {
			return err
		}
	}
	return nil
}
