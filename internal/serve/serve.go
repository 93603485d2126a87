// Package serve is the estimation server: it turns a trained core.Model
// into a long-running, failure-tolerant network service. Concurrent
// single-query requests are coalesced by a time/size-bounded dynamic
// batcher into stacked EstimateBatch calls (the §5.3 batching win without
// giving up per-query determinism — seeds derive from query content, not
// batch position); a bounded queue and an in-flight semaphore provide
// admission control (load is shed with retryable rejections, never
// unbounded memory); per-request deadlines flow into the guard cascade and
// late queries degrade to the cheap fallback tier instead of erroring; and
// model versions hot-swap atomically on training epoch boundaries with
// automatic rollback if the new version's guard-rejection rate spikes.
//
// See DESIGN.md "Serving layer" for the full architecture.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"iam/internal/atomicfile"
	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/guard"
	"iam/internal/guard/faultinject"
	"iam/internal/query"
	"iam/internal/shard"
)

// Sentinel errors of the admission path.
var (
	// ErrOverloaded means the request queue was full. The client should
	// back off and retry (HTTP 429 + Retry-After).
	ErrOverloaded = errors.New("serve: overloaded, retry later")
	// ErrClosed means the server is draining or has shut down.
	ErrClosed = errors.New("serve: server closed")
)

// Result sources.
const (
	// SourceBatch: answered by the full cascade in a dynamic batch.
	SourceBatch = "batch"
	// SourceShed: answered by the cheap tier because shed mode was active.
	SourceShed = "shed"
	// SourceDeadline: the request's deadline expired (or its context was
	// canceled) before the batch finished; answered by the cheap tier.
	SourceDeadline = "deadline-fallback"
	// SourceFallback: the whole batch call failed; answered by the cheap tier.
	SourceFallback = "fallback"
)

// Chaos-harness fault site: ArmDelay to inject latency spikes into the
// dispatch path (drives shed mode deterministically in tests).
const SiteDispatchLatency = "serve.dispatch.latency"

// Config tunes a Server. The zero value gets sensible defaults from New.
type Config struct {
	// MaxBatch caps how many queries one dispatched batch carries.
	// Default 32.
	MaxBatch int
	// BatchWindow is how long the batcher waits for stragglers after the
	// first request of a batch arrives. Default 2ms.
	BatchWindow time.Duration
	// QueueDepth bounds the admission queue; a full queue rejects with
	// ErrOverloaded. Default 256.
	QueueDepth int
	// MaxInFlight bounds concurrently executing batches. Default 2.
	MaxInFlight int
	// RetryAfter is the backoff hint attached to ErrOverloaded rejections
	// (HTTP Retry-After). Default 50ms.
	RetryAfter time.Duration
	// TierTimeout is the guard cascade's per-tier timeout. Default 2s.
	TierTimeout time.Duration
	// ShedLatency, when positive, enables latency-aware shedding: once the
	// EWMA batch latency exceeds it, batches are answered from the cheap
	// fallback tier (with periodic model probes) until the EWMA halves.
	ShedLatency time.Duration
	// DefaultDeadline, when positive, is applied to requests whose context
	// carries no deadline.
	DefaultDeadline time.Duration
	// RollbackRejectRate is the primary-tier failure fraction that triggers
	// automatic rollback after a swap. Default 0.5.
	RollbackRejectRate float64
	// RollbackMinCalls is how many primary-tier calls the rate must be
	// based on before rollback can fire. Default 20.
	RollbackMinCalls uint64
	// Seed feeds the fallback tiers' deterministic sample.
	Seed int64
	// SavePath, when set, makes Close flush the currently served model
	// there (atomic write) before returning.
	SavePath string
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	if c.TierTimeout <= 0 {
		c.TierTimeout = 2 * time.Second
	}
	if c.RollbackRejectRate <= 0 {
		c.RollbackRejectRate = 0.5
	}
	if c.RollbackMinCalls == 0 {
		c.RollbackMinCalls = 20
	}
	return c
}

// Result is one answered estimation request.
type Result struct {
	Selectivity float64
	// Source says which path answered: SourceBatch, SourceShed,
	// SourceDeadline or SourceFallback.
	Source string
	// Version is the model version the answer came from. A query answered
	// with SourceBatch is a pure function of (version, query).
	Version int
	// Err is non-nil only if every tier failed — which the terminal
	// histogram tier makes practically impossible.
	Err error
}

type request struct {
	ctx      context.Context
	q        *query.Query
	answered atomic.Bool
	done     chan Result // buffered 1; written exactly once via answer
}

// answer delivers res unless the request was already answered elsewhere
// (deadline watchdog vs. batch completion race). Reports whether it won.
func (r *request) answer(res Result) bool {
	if r.answered.CompareAndSwap(false, true) {
		r.done <- res
		return true
	}
	return false
}

// Server is the estimation service. Create with New (or NewInjected for
// fault-injection tests), serve with Estimate or Handler, stop with Close.
type Server struct {
	cfg   Config
	table *dataset.Table

	cur atomic.Pointer[version]

	// swapMu serializes version installs (swap, rollback, train bookkeeping).
	// It is the top of serve's lock order: code holding closeMu or latMu must
	// never wait on it.
	swapMu sync.Mutex
	prev   *version // guarded by swapMu — rollback target; nil once used or superseded
	nextID int      // guarded by swapMu

	queue chan *request
	sem   chan struct{} // in-flight batch slots

	closeMu     sync.RWMutex
	closing     bool // guarded by closeMu
	stop        chan struct{}
	reqWG       sync.WaitGroup     // accepted requests not yet answered
	dispWG      sync.WaitGroup     // running dispatch goroutines
	bgWG        sync.WaitGroup     // retire watchers
	trainWG     sync.WaitGroup     // background training loop
	trainCancel context.CancelFunc // guarded by swapMu
	batcherDone chan struct{}

	latMu sync.Mutex
	ewma  float64 // guarded by latMu — EWMA batch latency, seconds
	shed  atomic.Bool
	probe atomic.Uint64

	accepted, rejected, shedServed, deadlineFB, batches, swaps, rollbacks atomic.Uint64
}

// New builds a server over the standard cascade (model → sampling →
// histogram) and starts its batcher.
func New(cfg Config, t *dataset.Table, m *core.Model) (*Server, error) {
	s := newServer(cfg, t)
	v, err := newVersion(1, t, m, s.cfg.Seed, s.cfg.TierTimeout)
	if err != nil {
		return nil, err
	}
	s.start(v)
	return s, nil
}

// NewEnsemble builds a server over a sharded ensemble instead of a single
// model. The ensemble slots into the same cascade (ensemble → sampling →
// histogram) and every serving feature — batching, hot swap, rollback,
// shutdown persistence — applies unchanged; per-shard staleness fallback is
// handled inside the ensemble itself (see internal/shard).
func NewEnsemble(cfg Config, t *dataset.Table, e *shard.Ensemble) (*Server, error) {
	s := newServer(cfg, t)
	v, err := newVersion(1, t, e, s.cfg.Seed, s.cfg.TierTimeout)
	if err != nil {
		return nil, err
	}
	s.start(v)
	return s, nil
}

// NewInjected builds a server over caller-supplied estimator tiers — the
// chaos harness's entry point. The table may be nil if the HTTP handler is
// not used.
func NewInjected(cfg Config, t *dataset.Table, primary estimator.Estimator, fallbacks ...estimator.Estimator) (*Server, error) {
	s := newServer(cfg, t)
	v, err := newInjectedVersion(1, s.cfg.TierTimeout, primary, fallbacks...)
	if err != nil {
		return nil, err
	}
	s.start(v)
	return s, nil
}

func newServer(cfg Config, t *dataset.Table) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:         cfg,
		table:       t,
		queue:       make(chan *request, cfg.QueueDepth),
		sem:         make(chan struct{}, cfg.MaxInFlight),
		stop:        make(chan struct{}),
		batcherDone: make(chan struct{}),
	}
}

func (s *Server) start(v *version) {
	s.swapMu.Lock()
	s.nextID = v.id
	s.swapMu.Unlock()
	s.cur.Store(v)
	go s.batcher()
}

// Estimate answers one query through the batching pipeline. It blocks until
// the query is answered (bounded by its deadline plus the cheap-tier cost)
// and fails fast with ErrOverloaded or ErrClosed at admission.
func (s *Server) Estimate(ctx context.Context, q *query.Query) (Result, error) {
	if s.cfg.DefaultDeadline > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DefaultDeadline)
			defer cancel()
		}
	}
	r := &request{ctx: ctx, q: q, done: make(chan Result, 1)}
	if err := s.enqueue(r); err != nil {
		return Result{}, err
	}
	res := <-r.done
	s.reqWG.Done()
	return res, res.Err
}

// enqueue is the admission hot path: the closing check, the WaitGroup Add
// and the queue send share one read lock so Close's closing-flip (write
// lock) strictly orders every Add before its reqWG.Wait — no Add-after-Wait
// race, and no request slips into the queue after the batcher starts its
// final drain. On success the caller owns one reqWG count.
//
// iam:noalloc
func (s *Server) enqueue(r *request) error {
	s.closeMu.RLock()
	if s.closing {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	s.reqWG.Add(1)
	select {
	case s.queue <- r:
		s.closeMu.RUnlock()
	default:
		s.reqWG.Done()
		s.closeMu.RUnlock()
		s.rejected.Add(1)
		return ErrOverloaded
	}
	s.accepted.Add(1)
	return nil
}

// RetryAfter is the configured backoff hint for ErrOverloaded rejections.
func (s *Server) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// batcher is the single coalescing loop: it blocks for the first request,
// then gathers up to MaxBatch-1 more for at most BatchWindow, and hands the
// batch to a dispatch goroutine gated by the in-flight semaphore. When the
// semaphore is saturated the batcher blocks, the queue fills, and admission
// starts rejecting — backpressure instead of unbounded buffering.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	for {
		select {
		case first := <-s.queue:
			s.collect(first)
		case <-s.stop:
			// Final drain: everything already admitted gets answered.
			for {
				select {
				case first := <-s.queue:
					s.collect(first)
				default:
					return
				}
			}
		}
	}
}

func (s *Server) collect(first *request) {
	batch := make([]*request, 1, s.cfg.MaxBatch)
	batch[0] = first
	timer := time.NewTimer(s.cfg.BatchWindow)
	defer timer.Stop()
collect:
	for len(batch) < s.cfg.MaxBatch {
		select {
		case r := <-s.queue:
			batch = append(batch, r)
		case <-timer.C:
			break collect
		}
	}
	s.sem <- struct{}{}
	s.dispWG.Add(1)
	go func() {
		defer func() {
			<-s.sem
			s.dispWG.Done()
		}()
		s.dispatch(batch)
	}()
}

// dispatch answers one batch. The version is loaded once, so the whole
// batch — including any per-request fallbacks — is served by a single
// model generation even while a swap lands concurrently.
func (s *Server) dispatch(batch []*request) {
	s.batches.Add(1)
	if d, ok := faultinject.FireDelay(SiteDispatchLatency); ok {
		time.Sleep(d)
	}
	v := s.cur.Load()
	v.inflight.Add(1)
	defer v.inflight.Add(-1)

	// Shed mode: answer from the cheap tier, except for periodic probe
	// batches that re-measure the model path so the EWMA can recover.
	if s.shed.Load() && s.probe.Add(1)%shedProbeEvery != 0 {
		s.shedServed.Add(uint64(len(batch)))
		for _, r := range batch {
			s.answerCheap(v, r, SourceShed)
		}
		return
	}

	// Requests that arrived already expired skip the model entirely.
	live := make([]*request, 0, len(batch))
	for _, r := range batch {
		if r.ctx.Err() != nil {
			if s.answerCheap(v, r, SourceDeadline) {
				s.deadlineFB.Add(1)
			}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}

	// The batch context carries the *latest* deadline among live requests,
	// so one tight deadline never truncates its batch-mates; requests with
	// earlier deadlines are rescued individually by watchdogs below —
	// partial-batch completion.
	ctx, cancel := s.batchContext(live)
	defer cancel()

	batchDone := make(chan struct{})
	var wdWG sync.WaitGroup
	for _, r := range live {
		if r.ctx.Done() == nil {
			continue
		}
		wdWG.Add(1)
		go func(r *request) {
			defer wdWG.Done()
			select {
			case <-batchDone:
			case <-r.ctx.Done():
				// The batch may have answered r already, its caller then
				// cancelling the context: count only an answer delivered here.
				if s.answerCheap(v, r, SourceDeadline) {
					s.deadlineFB.Add(1)
				}
			}
		}(r)
	}

	qs := make([]*query.Query, len(live))
	for i, r := range live {
		qs[i] = r.q
	}
	start := time.Now()
	sels, err := v.cascade.EstimateBatchCtx(ctx, qs)
	s.observeLatency(time.Since(start))
	close(batchDone)
	if err != nil {
		for _, r := range live {
			s.answerCheap(v, r, SourceFallback)
		}
	} else {
		for i, r := range live {
			r.answer(Result{Selectivity: sels[i], Source: SourceBatch, Version: v.id})
		}
	}
	wdWG.Wait()
	s.maybeRollback(v)
}

// shedProbeEvery: in shed mode every N-th batch still goes to the model so
// the latency EWMA can observe recovery.
const shedProbeEvery = 8

// batchContext returns a context bounded by the latest deadline among the
// live requests — unbounded if any request has no deadline.
func (s *Server) batchContext(live []*request) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, r := range live {
		d, ok := r.ctx.Deadline()
		if !ok {
			return context.Background(), func() {}
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(context.Background(), latest)
}

// answerCheap answers r from the version's cheap fallback cascade, unless
// it has already been answered. Reports whether this answer was delivered.
func (s *Server) answerCheap(v *version, r *request, source string) bool {
	if r.answered.Load() {
		return false
	}
	sel, err := v.fallback.Estimate(r.q)
	if err != nil {
		return r.answer(Result{Err: fmt.Errorf("serve: fallback tier failed: %w", err), Source: source, Version: v.id})
	}
	return r.answer(Result{Selectivity: sel, Source: source, Version: v.id})
}

// observeLatency folds one model-batch latency into the EWMA and flips shed
// mode with hysteresis: enter above ShedLatency, exit below half of it.
func (s *Server) observeLatency(d time.Duration) {
	s.latMu.Lock()
	if s.ewma == 0 {
		s.ewma = d.Seconds()
	} else {
		const alpha = 0.3
		s.ewma = alpha*d.Seconds() + (1-alpha)*s.ewma
	}
	cur := s.ewma
	s.latMu.Unlock()
	if s.cfg.ShedLatency <= 0 {
		return
	}
	th := s.cfg.ShedLatency.Seconds()
	switch {
	case cur > th:
		s.shed.Store(true)
	case cur < th/2:
		s.shed.Store(false)
	}
}

// Swap atomically replaces the served model with m — a *core.Model or a
// *shard.Ensemble — as a new version. The previous version (single model
// or ensemble) keeps serving its in-flight batches, is retained as the
// rollback target, and has its worker pool released once it drains.
// Mixed-kind swaps (model → ensemble and back) are fully supported —
// versions only see the served interface.
func (s *Server) Swap(m served) (int, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	v, err := newVersion(s.nextID+1, s.table, m, s.cfg.Seed, s.cfg.TierTimeout)
	if err != nil {
		return 0, err
	}
	s.installLocked(v)
	return v.id, nil
}

// SwapInjected is Swap for caller-supplied tiers (chaos tests).
func (s *Server) SwapInjected(primary estimator.Estimator, fallbacks ...estimator.Estimator) (int, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	v, err := newInjectedVersion(s.nextID+1, s.cfg.TierTimeout, primary, fallbacks...)
	if err != nil {
		return 0, err
	}
	s.installLocked(v)
	return v.id, nil
}

func (s *Server) installLocked(v *version) {
	s.nextID = v.id
	old := s.cur.Load()
	s.cur.Store(v)
	s.prev = old
	s.swaps.Add(1)
	s.retire(old)
}

// maybeRollback reverts to the previous version when the current one's
// primary tier is being rejected at RollbackRejectRate or worse (over at
// least RollbackMinCalls calls). One-shot per swap: the rollback target is
// cleared so two bad versions cannot ping-pong.
func (s *Server) maybeRollback(v *version) {
	if s.cur.Load() != v {
		return
	}
	rate, calls := v.rejectionRate()
	if calls < s.cfg.RollbackMinCalls || rate < s.cfg.RollbackRejectRate {
		return
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.cur.Load() != v || s.prev == nil {
		return
	}
	restored := s.prev
	s.prev = nil
	s.cur.Store(restored)
	s.rollbacks.Add(1)
	s.retire(v)
}

// retire waits (on a background goroutine) for a superseded version's
// in-flight batches to drain, then releases its pooled workers. A version
// that became current again via rollback is left alone.
func (s *Server) retire(v *version) {
	if v == nil || v.model == nil {
		return
	}
	s.bgWG.Add(1)
	go func() {
		defer s.bgWG.Done()
		for v.inflight.Load() != 0 {
			time.Sleep(time.Millisecond)
		}
		if s.cur.Load() == v {
			return
		}
		v.model.ReleaseWorkers()
	}()
}

// Close drains and shuts down: admission starts failing with ErrClosed,
// every already-accepted request is answered, background training is
// canceled (its checkpoint machinery flushes the last completed epoch), and
// the currently served model is flushed to SavePath if configured.
// Idempotent; concurrent calls all block until the drain completes.
func (s *Server) Close() error {
	s.closeMu.Lock()
	already := s.closing
	s.closing = true
	s.closeMu.Unlock()
	if !already {
		close(s.stop)
	}
	s.swapMu.Lock()
	cancel := s.trainCancel
	s.swapMu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.trainWG.Wait()
	s.reqWG.Wait()
	<-s.batcherDone
	s.dispWG.Wait()
	s.bgWG.Wait()
	if s.cfg.SavePath == "" {
		return nil
	}
	v := s.cur.Load()
	if v.model == nil {
		return nil
	}
	if err := atomicfile.WriteFile(s.cfg.SavePath, func(w io.Writer) error {
		return v.model.Save(w)
	}); err != nil {
		return fmt.Errorf("serve: final model flush: %w", err)
	}
	return nil
}

// Stats is a point-in-time snapshot of the server's counters and the
// current version's cascade health.
type Stats struct {
	Version  int  `json:"version"`
	Closing  bool `json:"closing"`
	ShedMode bool `json:"shed_mode"`

	Accepted          uint64 `json:"accepted"`
	Rejected          uint64 `json:"rejected"`
	ShedServed        uint64 `json:"shed_served"`
	DeadlineFallbacks uint64 `json:"deadline_fallbacks"`
	Batches           uint64 `json:"batches"`
	Swaps             uint64 `json:"swaps"`
	Rollbacks         uint64 `json:"rollbacks"`

	QueueLen           int     `json:"queue_len"`
	QueueCap           int     `json:"queue_cap"`
	InFlight           int     `json:"in_flight"`
	EWMABatchLatencyMs float64 `json:"ewma_batch_latency_ms"`

	Cascade  []guard.EstimatorStats `json:"cascade"`
	Fallback []guard.EstimatorStats `json:"fallback"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	s.closeMu.RLock()
	closing := s.closing
	s.closeMu.RUnlock()
	s.latMu.Lock()
	ewma := s.ewma
	s.latMu.Unlock()
	v := s.cur.Load()
	return Stats{
		Version:            v.id,
		Closing:            closing,
		ShedMode:           s.shed.Load(),
		Accepted:           s.accepted.Load(),
		Rejected:           s.rejected.Load(),
		ShedServed:         s.shedServed.Load(),
		DeadlineFallbacks:  s.deadlineFB.Load(),
		Batches:            s.batches.Load(),
		Swaps:              s.swaps.Load(),
		Rollbacks:          s.rollbacks.Load(),
		QueueLen:           len(s.queue),
		QueueCap:           cap(s.queue),
		InFlight:           len(s.sem),
		EWMABatchLatencyMs: roundMs(ewma),
		Cascade:            v.cascade.Stats(),
		Fallback:           v.fallback.Stats(),
	}
}

func roundMs(seconds float64) float64 {
	return math.Round(seconds*1e6) / 1e3
}
