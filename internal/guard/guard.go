// Package guard wraps selectivity estimators with the failure handling a
// query optimizer needs before it can trust a learned model in the planning
// path: panics become errors, non-physical results (NaN, ±Inf, outside
// [0, 1]) are rejected, slow estimators are cut off by a per-query timeout,
// and every failure falls through an ordered cascade of backup estimators —
// typically IAM first, then a sampling estimator, then a Postgres-style
// histogram that cannot fail. The wrapper records per-estimator failure and
// fallback counters so operators can see how often the primary model is
// actually being used.
package guard

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"iam/internal/estimator"
	"iam/internal/query"
)

// Config tunes a Guarded cascade.
type Config struct {
	// Timeout bounds each underlying Estimate call. Zero disables the
	// deadline. A timed-out call keeps running on its goroutine (Go cannot
	// kill it), but the cascade moves on immediately and its eventual
	// result is discarded; such stragglers are visible in the per-tier
	// Abandoned gauge until they finish.
	Timeout time.Duration
	// Name overrides the wrapper's reported name. Default "guarded(<first>)".
	Name string
}

// EstimatorStats are the per-tier counters a Guarded cascade records.
type EstimatorStats struct {
	Name string
	// Served counts queries this tier answered with a valid estimate.
	Served uint64
	// Errors counts returned errors, Panics recovered panics, Invalid
	// results rejected by validation (NaN/Inf/outside [0,1]), Timeouts
	// calls abandoned after Config.Timeout or a context deadline.
	Errors, Panics, Invalid, Timeouts uint64
	// Abandoned is an in-flight *gauge*, not a counter: the number of
	// timed-out calls whose goroutine is still running right now (Go cannot
	// kill them; the cascade moved on and will discard their result). It
	// rises on every timeout and returns to zero as stragglers finish, so a
	// persistently non-zero value means the wrapped estimator is wedged.
	Abandoned int64
}

// Failures is the total number of queries this tier failed to answer.
func (s EstimatorStats) Failures() uint64 {
	return s.Errors + s.Panics + s.Invalid + s.Timeouts
}

type tier struct {
	est estimator.Estimator

	served, errors, panics, invalid, timeouts atomic.Uint64
	abandoned                                 atomic.Int64 // gauge: timed-out calls still running
}

// Guarded is an estimator.Estimator (and BatchEstimator) that delegates to
// an ordered cascade of underlying estimators, falling through on any
// failure. It is safe for concurrent use if the wrapped estimators are.
type Guarded struct {
	cfg   Config
	tiers []*tier

	// exhausted counts queries every tier failed on.
	exhausted atomic.Uint64
}

// New builds a guarded cascade over ests, tried in order. At least one
// estimator is required; the last one should be a conservative estimator
// that cannot realistically fail (e.g. a histogram).
func New(cfg Config, ests ...estimator.Estimator) (*Guarded, error) {
	if len(ests) == 0 {
		return nil, fmt.Errorf("guard: cascade needs at least one estimator")
	}
	g := &Guarded{cfg: cfg}
	for _, e := range ests {
		if e == nil {
			return nil, fmt.Errorf("guard: nil estimator in cascade")
		}
		g.tiers = append(g.tiers, &tier{est: e})
	}
	if g.cfg.Name == "" {
		g.cfg.Name = "guarded(" + ests[0].Name() + ")"
	}
	return g, nil
}

// Name implements estimator.Estimator.
func (g *Guarded) Name() string { return g.cfg.Name }

// Valid reports whether sel is a physically meaningful selectivity.
func Valid(sel float64) bool {
	// NaN fails both comparisons; ±Inf fails one.
	return sel >= 0 && sel <= 1
}

type estResult struct {
	sel float64
	err error
}

// tierBudget resolves the wall-clock budget of one tier call: the smaller of
// Config.Timeout and the time left on ctx, either of which may be absent
// (≤ 0 means unbounded). The terminal tier ignores the context — it is the
// cascade's cannot-fail answer, so a request that overran its deadline still
// gets a conservative estimate instead of an error. expired reports that the
// context deadline has already passed, so a non-terminal tier should be
// skipped without being run.
func (g *Guarded) tierBudget(ctx context.Context, last bool) (budget time.Duration, expired bool) {
	budget = g.cfg.Timeout
	if last {
		return budget, false
	}
	d, ok := ctx.Deadline()
	if !ok {
		return budget, false
	}
	rem := time.Until(d)
	if rem <= 0 {
		return budget, true
	}
	if budget <= 0 || rem < budget {
		budget = rem
	}
	return budget, false
}

// call runs one tier's Estimate with panic recovery, validation and, when
// positive, a wall-clock budget. It reports the estimate, the failure (if
// any), and records which counter the failure belongs to.
func (g *Guarded) call(t *tier, q *query.Query, budget time.Duration) (float64, error) {
	res, ok := withBudget(t, budget, func() (res estResult) {
		defer func() {
			if r := recover(); r != nil {
				res = estResult{err: fmt.Errorf("guard: %s panicked: %v", t.est.Name(), r)}
				t.panics.Add(1)
			}
		}()
		sel, err := t.est.Estimate(q)
		if err != nil {
			t.errors.Add(1)
			return estResult{err: err}
		}
		if !Valid(sel) {
			t.invalid.Add(1)
			return estResult{err: invalidErr(t, sel)}
		}
		return estResult{sel: sel}
	})
	if !ok {
		return 0, fmt.Errorf("guard: %s timed out after %v", t.est.Name(), budget)
	}
	return res.sel, res.err
}

// invalidErr describes a tier's non-physical estimate.
func invalidErr(t *tier, sel float64) error {
	return fmt.Errorf("guard: %s returned invalid selectivity %v", t.est.Name(), sel)
}

// withBudget runs fn inline when budget ≤ 0. Otherwise fn runs on its own
// goroutine raced against a budget timer: ok is false when the timer wins,
// in which case the timeout is counted and the still-running call is left
// to watchAbandoned.
func withBudget[T any](t *tier, budget time.Duration, fn func() T) (res T, ok bool) {
	if budget <= 0 {
		return fn(), true
	}
	ch := make(chan T, 1)
	go func() { ch <- fn() }()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case res = <-ch:
		return res, true
	case <-timer.C:
		t.timeouts.Add(1)
		watchAbandoned(t, ch)
		return res, false
	}
}

// watchAbandoned accounts for a timed-out call whose goroutine keeps running:
// the tier's Abandoned gauge rises now and falls when the straggler finally
// delivers its (discarded) result into the buffered channel.
func watchAbandoned[T any](t *tier, ch <-chan T) {
	t.abandoned.Add(1)
	go func() {
		<-ch
		t.abandoned.Add(-1)
	}()
}

// Estimate implements estimator.Estimator: it tries each tier in order and
// returns the first valid estimate. If every tier fails, it returns an
// error joining each tier's failure.
func (g *Guarded) Estimate(q *query.Query) (float64, error) {
	return g.EstimateCtx(context.Background(), q)
}

// EstimateCtx is Estimate with a per-request deadline. A single query is a
// batch of one: see EstimateBatchCtx.
func (g *Guarded) EstimateCtx(ctx context.Context, q *query.Query) (float64, error) {
	sels, err := g.EstimateBatchCtx(ctx, []*query.Query{q})
	if err != nil {
		return 0, err
	}
	return sels[0], nil
}

// EstimateBatch implements estimator.BatchEstimator. Tiers that themselves
// implement BatchEstimator are invoked in one batched call (with the same
// panic/validation/timeout protection); per-query failures within a batch
// fall through to the next tier query by query.
func (g *Guarded) EstimateBatch(qs []*query.Query) ([]float64, error) {
	return g.EstimateBatchCtx(context.Background(), qs)
}

// EstimateBatchCtx is EstimateBatch with a per-request deadline: the time
// remaining on ctx caps every non-terminal tier's budget (on top of
// Config.Timeout, shared across the whole batch call), and a tier whose turn
// comes after the deadline has passed is skipped and counted as a timeout
// for every pending query. The terminal tier always runs, so a late request
// still gets the conservative fallback estimate rather than an error.
func (g *Guarded) EstimateBatchCtx(ctx context.Context, qs []*query.Query) ([]float64, error) {
	out := make([]float64, len(qs))
	pending := make([]int, len(qs)) // indices into qs still unanswered
	for i := range qs {
		pending[i] = i
	}
	var firstErr error
	for ti, t := range g.tiers {
		if len(pending) == 0 {
			break
		}
		budget, expired := g.tierBudget(ctx, ti == len(g.tiers)-1)
		if expired {
			t.timeouts.Add(uint64(len(pending)))
			if firstErr == nil {
				firstErr = fmt.Errorf("guard: %s skipped: %w", t.est.Name(), ctx.Err())
			}
			continue
		}
		if be, ok := t.est.(estimator.BatchEstimator); ok {
			sub := make([]*query.Query, len(pending))
			for i, qi := range pending {
				sub[i] = qs[qi]
			}
			sels, err := g.callBatch(t, be, sub, budget)
			if err == nil {
				next := pending[:0]
				for i, qi := range pending {
					if Valid(sels[i]) {
						out[qi] = sels[i]
						t.served.Add(1)
						continue
					}
					t.invalid.Add(1)
					if firstErr == nil {
						firstErr = invalidErr(t, sels[i])
					}
					next = append(next, qi)
				}
				pending = next
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			// Whole batch failed; fall through to per-query below? No —
			// the batch call already consumed this tier's attempt for
			// every pending query, so move to the next tier.
			continue
		}
		next := pending[:0]
		for _, qi := range pending {
			sel, err := g.call(t, qs[qi], budget)
			if err == nil {
				out[qi] = sel
				t.served.Add(1)
			} else {
				if firstErr == nil {
					firstErr = err
				}
				next = append(next, qi)
			}
		}
		pending = next
	}
	if len(pending) > 0 {
		g.exhausted.Add(uint64(len(pending)))
		return nil, fmt.Errorf("guard: all %d estimators failed on %d of %d queries (first: %w)",
			len(g.tiers), len(pending), len(qs), firstErr)
	}
	return out, nil
}

// callBatch is call for a whole batch: panic recovery, validation of the
// result length, and the shared budget applied to the batch as a whole.
func (g *Guarded) callBatch(t *tier, be estimator.BatchEstimator, qs []*query.Query, budget time.Duration) ([]float64, error) {
	type batchResult struct {
		sels []float64
		err  error
	}
	run := func() (res batchResult) {
		defer func() {
			if r := recover(); r != nil {
				res = batchResult{err: fmt.Errorf("guard: %s panicked in batch: %v", be.Name(), r)}
				t.panics.Add(1)
			}
		}()
		sels, err := be.EstimateBatch(qs)
		if err != nil {
			t.errors.Add(1)
			return batchResult{err: err}
		}
		if len(sels) != len(qs) {
			t.errors.Add(1)
			return batchResult{err: fmt.Errorf("guard: %s returned %d estimates for %d queries", be.Name(), len(sels), len(qs))}
		}
		return batchResult{sels: sels}
	}
	res, ok := withBudget(t, budget, run)
	if !ok {
		return nil, fmt.Errorf("guard: %s batch timed out after %v", be.Name(), budget)
	}
	return res.sels, res.err
}

// Stats snapshots the per-tier counters, in cascade order.
func (g *Guarded) Stats() []EstimatorStats {
	out := make([]EstimatorStats, len(g.tiers))
	for i, t := range g.tiers {
		out[i] = EstimatorStats{
			Name:      t.est.Name(),
			Served:    t.served.Load(),
			Errors:    t.errors.Load(),
			Panics:    t.panics.Load(),
			Invalid:   t.invalid.Load(),
			Timeouts:  t.timeouts.Load(),
			Abandoned: t.abandoned.Load(),
		}
	}
	return out
}

// Exhausted reports how many queries failed on every tier.
func (g *Guarded) Exhausted() uint64 { return g.exhausted.Load() }

// String renders the counters compactly for logs:
//
//	guarded(IAM): IAM served=98 failed=2 | sampling served=2 failed=0
func (g *Guarded) String() string {
	s := g.cfg.Name + ":"
	for i, st := range g.Stats() {
		if i > 0 {
			s += " |"
		}
		s += fmt.Sprintf(" %s served=%d failed=%d", st.Name, st.Served, st.Failures())
	}
	return s
}
