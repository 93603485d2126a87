package core

import (
	"container/list"
	"math"
	"runtime"

	"iam/internal/ar"
	"iam/internal/nn"
	"iam/internal/query"
)

// Concurrent serving path: the worker pool behind EstimateBatch's sharding,
// the per-query content seed, and the LRU cache of §5.2 range-mass
// vectors. See DESIGN.md "Concurrent serving path" for the lock hierarchy.

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

// massKey identifies one cached §5.2 range-mass vector: the column and the
// effective closed interval (open endpoints already moved inward), which is
// all the mass functions read.
type massKey struct {
	col    int
	lo, hi float64
}

type massEntry struct {
	key massKey
	wts []float64
}

// massCache is a fixed-capacity LRU of bias-correction weight vectors.
// Entries are immutable once inserted (constraints only read them), so a
// cached slice may be shared by any number of in-flight queries.
type massCache struct {
	capacity int
	order    *list.List // front = most recently used; values are *massEntry
	items    map[massKey]*list.Element
}

func newMassCache(capacity int) *massCache {
	return &massCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[massKey]*list.Element, capacity),
	}
}

func (c *massCache) get(k massKey) ([]float64, bool) {
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*massEntry).wts, true
}

func (c *massCache) put(k massKey, wts []float64) {
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		el.Value.(*massEntry).wts = wts
		return
	}
	for c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*massEntry).key)
	}
	c.items[k] = c.order.PushFront(&massEntry{key: k, wts: wts})
}

// massCacheGet returns the cached mass vector for k, if caching is enabled
// and the interval has been seen since the last refresh.
func (m *Model) massCacheGet(k massKey) ([]float64, bool) {
	if m.cfg.MassCacheSize <= 0 {
		return nil, false
	}
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	if m.massCache == nil {
		return nil, false
	}
	return m.massCache.get(k)
}

// massCachePut inserts a freshly computed mass vector. wts must not be
// mutated afterwards.
func (m *Model) massCachePut(k massKey, wts []float64) {
	if m.cfg.MassCacheSize <= 0 {
		return
	}
	m.cacheMu.Lock()
	defer m.cacheMu.Unlock()
	if m.massCache == nil {
		m.massCache = newMassCache(m.cfg.MassCacheSize)
	}
	m.massCache.put(k, wts)
}

// purgeMassCache drops every cached vector — required whenever the mixture
// parameters move (training), since the vectors are functions of them.
func (m *Model) purgeMassCache() {
	m.cacheMu.Lock()
	m.massCache = nil
	m.cacheMu.Unlock()
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
