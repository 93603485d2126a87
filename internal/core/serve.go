package core

import (
	"math"
	"runtime"

	"iam/internal/ar"
	"iam/internal/nn"
	"iam/internal/query"
)

// Concurrent serving path: the worker pool behind EstimateBatch's sharding
// and the per-query content seed. See DESIGN.md "Concurrent serving path"
// for the lock hierarchy.

// estWorker pairs the session and scratch buffers one estimate shard runs
// on. Workers are pooled on the model and reused across calls, so in steady
// state a shard borrows fully warmed buffers and allocates nothing.
type estWorker struct {
	sess    *nn.Session
	cap     int // rows the session accommodates
	scratch *ar.EstimateScratch
}

// estimateWorkerCount resolves cfg.Workers against the number of pending
// sampled queries: ≤0 means single-threaded (negative first expands to
// GOMAXPROCS), and a batch never uses more workers than it has queries.
func (m *Model) estimateWorkerCount(pending int) int {
	nw := m.cfg.Workers
	if nw < 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw < 1 {
		nw = 1
	}
	if nw > pending {
		nw = pending
	}
	return nw
}

// getWorker checks a worker out of the pool (or builds a fresh one) and
// grows its session to accommodate need rows. Callers must return it with
// putWorker.
func (m *Model) getWorker(need int) *estWorker {
	m.poolMu.Lock()
	var w *estWorker
	if n := len(m.workers); n > 0 {
		w = m.workers[n-1]
		m.workers[n-1] = nil
		m.workers = m.workers[:n-1]
	}
	m.poolMu.Unlock()
	if w == nil {
		w = &estWorker{scratch: ar.NewEstimateScratch()}
	}
	if w.cap < need {
		w.cap = need
		w.sess = m.arm.Net.NewSession(need)
	}
	return w
}

// putWorker returns a worker to the pool for reuse.
func (m *Model) putWorker(w *estWorker) {
	m.poolMu.Lock()
	m.workers = append(m.workers, w)
	m.poolMu.Unlock()
}

// QuerySeed derives the sampling stream every nil-seed estimate gives q: a
// content hash (column indices, bounds, bound kinds) mixed with the model
// seed through a splitmix64 finalizer. The same query always draws the same
// stream, whatever else shares its batch, so an estimate is a pure function
// of (model, query) in the library, the sharded ensemble and the server.
func (m *Model) QuerySeed(q *query.Query) int64 {
	h := uint64(m.cfg.Seed)
	mix := func(v uint64) {
		h ^= v
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	for ci, r := range q.Ranges {
		if r == nil {
			continue
		}
		mix(uint64(ci) + 1)
		mix(math.Float64bits(r.Lo))
		mix(math.Float64bits(r.Hi))
		var kinds uint64
		if r.LoInc {
			kinds |= 1
		}
		if r.HiInc {
			kinds |= 2
		}
		mix(kinds + 1)
	}
	return int64(h)
}

// ReleaseWorkers empties the pooled worker list, dropping the (large)
// cached sessions and scratch buffers. In-flight shards are unaffected:
// they keep the workers they checked out and return them to the now-empty
// pool, from which everything is rebuilt lazily on the next demand. The
// serving layer calls this when retiring a model version after a hot swap;
// a rolled-back version that becomes current again simply re-warms.
func (m *Model) ReleaseWorkers() {
	m.poolMu.Lock()
	m.workers = nil
	m.poolMu.Unlock()
}
