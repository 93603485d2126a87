package guard

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"iam/internal/dataset"
	"iam/internal/guard/faultinject"
	"iam/internal/query"
)

func testQuery(t *testing.T) *query.Query {
	t.Helper()
	tb := &dataset.Table{
		Name: "t",
		Columns: []*dataset.Column{
			{Name: "x", Kind: dataset.Continuous, Floats: []float64{1, 2, 3, 4}},
		},
	}
	q := query.NewQuery(tb)
	if err := q.AddPredicate(query.Predicate{Col: "x", Op: query.Le, Value: 2.5}); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestGuardedPanicFallsThrough(t *testing.T) {
	g, err := New(Config{},
		&faultinject.PanicEstimator{Label: "primary"},
		&faultinject.ConstEstimator{Label: "fallback", Value: 0.25},
	)
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery(t)
	sel, err := g.Estimate(q)
	if err != nil {
		t.Fatalf("cascade surfaced an error despite a healthy fallback: %v", err)
	}
	if sel != 0.25 {
		t.Fatalf("got %v, want fallback's 0.25", sel)
	}
	st := g.Stats()
	if st[0].Panics != 1 || st[0].Served != 0 {
		t.Fatalf("primary stats = %+v, want 1 panic, 0 served", st[0])
	}
	if st[1].Served != 1 {
		t.Fatalf("fallback stats = %+v, want 1 served", st[1])
	}
}

func TestGuardedRejectsInvalidValues(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.1, 1.5} {
		g, err := New(Config{},
			&faultinject.BadValueEstimator{Label: "bad", Value: bad},
			&faultinject.ConstEstimator{Label: "ok", Value: 0.5},
		)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := g.Estimate(testQuery(t))
		if err != nil || sel != 0.5 {
			t.Fatalf("bad=%v: got (%v, %v), want fallback 0.5", bad, sel, err)
		}
		if st := g.Stats(); st[0].Invalid != 1 {
			t.Fatalf("bad=%v: invalid counter = %d, want 1", bad, st[0].Invalid)
		}
	}
}

func TestGuardedTimeout(t *testing.T) {
	g, err := New(Config{Timeout: 20 * time.Millisecond},
		&faultinject.SlowEstimator{Label: "slow", Delay: 2 * time.Second, Value: 0.9},
		&faultinject.ConstEstimator{Label: "fast", Value: 0.1},
	)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sel, err := g.Estimate(testQuery(t))
	if err != nil || sel != 0.1 {
		t.Fatalf("got (%v, %v), want fast fallback 0.1", sel, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cascade waited %v for the slow estimator; timeout did not bite", elapsed)
	}
	if st := g.Stats(); st[0].Timeouts != 1 {
		t.Fatalf("timeout counter = %d, want 1", st[0].Timeouts)
	}
}

func TestGuardedErrorCascadeOrder(t *testing.T) {
	g, err := New(Config{},
		&faultinject.ErrEstimator{Label: "t1"},
		&faultinject.ErrEstimator{Label: "t2"},
		&faultinject.ConstEstimator{Label: "t3", Value: 0.33},
	)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := g.Estimate(testQuery(t))
	if err != nil || sel != 0.33 {
		t.Fatalf("got (%v, %v), want 0.33 from the third tier", sel, err)
	}
	st := g.Stats()
	if st[0].Errors != 1 || st[1].Errors != 1 || st[2].Served != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGuardedAllTiersFail(t *testing.T) {
	g, err := New(Config{},
		&faultinject.ErrEstimator{Label: "a"},
		&faultinject.BadValueEstimator{Label: "b", Value: math.NaN()},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Estimate(testQuery(t)); err == nil {
		t.Fatal("want an error when every tier fails")
	} else if !strings.Contains(err.Error(), "all 2 estimators failed") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if g.Exhausted() != 1 {
		t.Fatalf("exhausted = %d, want 1", g.Exhausted())
	}
}

func TestGuardedRecoversAfterTransientFault(t *testing.T) {
	// Healthy for 2 calls, then panics; the cascade must transparently
	// switch to the fallback without ever surfacing a failure.
	primary := &faultinject.PanicEstimator{Label: "iam", Value: 0.7, Healthy: 2}
	g, err := New(Config{},
		primary,
		&faultinject.ConstEstimator{Label: "hist", Value: 0.2},
	)
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery(t)
	want := []float64{0.7, 0.7, 0.2, 0.2}
	for i, w := range want {
		sel, err := g.Estimate(q)
		if err != nil || sel != w {
			t.Fatalf("call %d: got (%v, %v), want %v", i, sel, err, w)
		}
	}
	st := g.Stats()
	if st[0].Served != 2 || st[0].Panics != 2 || st[1].Served != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestGuardedBatchFallsThroughPerQuery(t *testing.T) {
	g, err := New(Config{},
		&faultinject.ErrEstimator{Label: "flaky"},
		&faultinject.ConstEstimator{Label: "safe", Value: 0.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery(t)
	sels, err := g.EstimateBatch([]*query.Query{q, q, q})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sels {
		if s != 0.4 {
			t.Fatalf("batch[%d] = %v, want 0.4", i, s)
		}
	}
	if st := g.Stats(); st[1].Served != 3 {
		t.Fatalf("fallback served = %d, want 3", st[1].Served)
	}
}

func TestGuardedName(t *testing.T) {
	g, err := New(Config{}, &faultinject.ConstEstimator{Label: "IAM", Value: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "guarded(IAM)" {
		t.Fatalf("name = %q", g.Name())
	}
	g2, err := New(Config{Name: "prod"}, &faultinject.ConstEstimator{Value: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name() != "prod" {
		t.Fatalf("name = %q", g2.Name())
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("want error for empty cascade")
	}
	if !strings.Contains(g.String(), "served=") {
		t.Fatalf("String() = %q", g.String())
	}
}

// TestAbandonedGaugeReturnsToZero drives a timeout, observes the straggling
// goroutine on the Abandoned gauge, and verifies the gauge drains once the
// straggler delivers its (discarded) result.
func TestAbandonedGaugeReturnsToZero(t *testing.T) {
	g, err := New(Config{Timeout: 10 * time.Millisecond},
		&faultinject.SlowEstimator{Label: "slow", Delay: 150 * time.Millisecond, Value: 0.9},
		&faultinject.ConstEstimator{Label: "fast", Value: 0.1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if sel, err := g.Estimate(testQuery(t)); err != nil || sel != 0.1 {
		t.Fatalf("got (%v, %v), want fast fallback 0.1", sel, err)
	}
	if st := g.Stats(); st[0].Abandoned != 1 {
		t.Fatalf("Abandoned gauge right after timeout = %d, want 1 (straggler still sleeping)", st[0].Abandoned)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := g.Stats(); st[0].Abandoned == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("Abandoned gauge did not return to zero; stats: %+v", g.Stats()[0])
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := g.Stats(); st[0].Timeouts != 1 {
		t.Fatalf("timeout counter = %d, want 1", st[0].Timeouts)
	}
}

// TestEstimateCtxDeadlineSkipsToTerminalTier verifies context plumbing: an
// already-expired deadline skips every non-terminal tier (counted as a
// timeout) and the terminal tier still answers.
func TestEstimateCtxDeadlineSkipsToTerminalTier(t *testing.T) {
	slow := &faultinject.SlowEstimator{Label: "slow", Delay: time.Second, Value: 0.9}
	g, err := New(Config{},
		slow,
		&faultinject.ConstEstimator{Label: "terminal", Value: 0.2},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	sel, err := g.EstimateCtx(ctx, testQuery(t))
	if err != nil || sel != 0.2 {
		t.Fatalf("got (%v, %v), want terminal 0.2", sel, err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("expired deadline still waited %v on the slow tier", elapsed)
	}
	st := g.Stats()
	if st[0].Timeouts != 1 || st[0].Served != 0 {
		t.Fatalf("slow tier stats = %+v, want 1 timeout (skipped), 0 served", st[0])
	}
	if st[1].Served != 1 {
		t.Fatalf("terminal tier stats = %+v, want 1 served", st[1])
	}
}

// TestEstimateBatchCtxDeadlineCapsModelTier verifies that a near deadline
// caps a non-terminal tier's budget below Config.Timeout in the batch path.
func TestEstimateBatchCtxDeadlineCapsModelTier(t *testing.T) {
	g, err := New(Config{Timeout: 10 * time.Second},
		&faultinject.SlowEstimator{Label: "slow", Delay: 2 * time.Second, Value: 0.9},
		&faultinject.ConstEstimator{Label: "terminal", Value: 0.3},
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	qs := []*query.Query{testQuery(t), testQuery(t)}
	start := time.Now()
	sels, err := g.EstimateBatchCtx(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("batch waited %v; ctx deadline did not cap the 10s tier timeout", elapsed)
	}
	for i, sel := range sels {
		if sel != 0.3 {
			t.Fatalf("query %d: got %v, want terminal 0.3", i, sel)
		}
	}
	if st := g.Stats(); st[0].Timeouts != 2 {
		t.Fatalf("slow tier timeouts = %d, want 2 (one per pending query)", st[0].Timeouts)
	}
}

// outOfRangeBatch is a batch tier whose every estimate is non-physical.
type outOfRangeBatch struct{}

func (outOfRangeBatch) Name() string                           { return "out-of-range" }
func (outOfRangeBatch) Estimate(*query.Query) (float64, error) { return 1.5, nil }
func (outOfRangeBatch) EstimateBatch(qs []*query.Query) ([]float64, error) {
	sels := make([]float64, len(qs))
	for i := range sels {
		sels[i] = 1.5
	}
	return sels, nil
}

// TestGuardedBatchInvalidNamesCause: when a batch tier's non-physical
// answers exhaust the cascade, the error names them as its first cause —
// for a batch and for a single query, which is a batch of one.
func TestGuardedBatchInvalidNamesCause(t *testing.T) {
	g, err := New(Config{}, outOfRangeBatch{})
	if err != nil {
		t.Fatal(err)
	}
	q := testQuery(t)
	if _, err := g.EstimateBatch([]*query.Query{q, q}); err == nil || !strings.Contains(err.Error(), "out-of-range returned invalid selectivity 1.5") {
		t.Fatalf("batch error = %v, want the invalid selectivity as its cause", err)
	}
	if _, err := g.Estimate(q); err == nil || !strings.Contains(err.Error(), "out-of-range returned invalid selectivity 1.5") {
		t.Fatalf("single-query error = %v, want the invalid selectivity as its cause", err)
	}
	if st := g.Stats(); st[0].Invalid != 3 || g.Exhausted() != 3 {
		t.Fatalf("invalid = %d, exhausted = %d; want 3 and 3", st[0].Invalid, g.Exhausted())
	}
}
