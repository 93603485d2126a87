package serve

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/guard/faultinject"
	"iam/internal/query"
	"iam/internal/testutil"
)

// One small trained model shared by every test in the package (the serving
// layer never mutates it, so concurrent servers over it are fine).
var fixture struct {
	once sync.Once
	m    *core.Model
	tbl  *dataset.Table
	err  error
}

func fixtureCfg() core.Config {
	return core.Config{
		Components: 16,
		Hidden:     []int{24, 24},
		EmbedDim:   12,
		Epochs:     3,
		BatchSize:  128,
		NumSamples: 200,
		GMMSamples: 2000,
		Seed:       7,
	}
}

func testModel(tb testing.TB) (*core.Model, *dataset.Table) {
	tb.Helper()
	fixture.once.Do(func() {
		t := dataset.SynthTWI(3000, 11)
		m, err := core.Train(t, fixtureCfg())
		fixture.m, fixture.tbl, fixture.err = m, t, err
	})
	if fixture.err != nil {
		tb.Fatal(fixture.err)
	}
	return fixture.m, fixture.tbl
}

func mustClose(tb testing.TB, s *Server) {
	tb.Helper()
	if err := s.Close(); err != nil {
		tb.Fatalf("Close: %v", err)
	}
}

// TestServerCoalescesAndStaysDeterministic is the server's core contract:
// concurrent single-query requests are merged into batches, yet every
// answer is bit-identical to the library's answer for that query — the
// explicit content-seeded estimate, Estimate(q) and its slot in one
// EstimateBatch — so batching is invisible to the client.
func TestServerCoalescesAndStaysDeterministic(t *testing.T) {
	m, tbl := testModel(t)
	w := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 12, Seed: 91})
	s, err := New(Config{BatchWindow: 30 * time.Millisecond, MaxBatch: 16, MaxInFlight: 1}, tbl, m)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)

	results := make([]Result, len(w.Queries))
	var wg sync.WaitGroup
	for i, q := range w.Queries {
		wg.Add(1)
		go func(i int, q *query.Query) {
			defer wg.Done()
			res, err := s.Estimate(context.Background(), q)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, q)
	}
	wg.Wait()
	st := s.Stats()
	if st.Batches >= uint64(len(w.Queries)) {
		t.Fatalf("no coalescing: %d batches for %d queries", st.Batches, len(w.Queries))
	}
	batch, err := m.EstimateBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		want, err := m.EstimateBatchSeeded([]*query.Query{q}, []int64{m.QuerySeed(q)})
		if err != nil {
			t.Fatal(err)
		}
		alone, err := m.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		got := math.Float64bits(results[i].Selectivity)
		if got != math.Float64bits(want[0]) || got != math.Float64bits(alone) || got != math.Float64bits(batch[i]) {
			t.Fatalf("query %d: served %v, content-seeded %v, Estimate %v, EstimateBatch %v — batching leaked into the estimate",
				i, results[i].Selectivity, want[0], alone, batch[i])
		}
		if results[i].Source != SourceBatch || results[i].Version != 1 {
			t.Fatalf("query %d: unexpected provenance %q v%d", i, results[i].Source, results[i].Version)
		}
	}
}

// TestServerAdmissionControl fills the bounded queue behind a slow primary
// and checks overload turns into fast ErrOverloaded rejections, not
// buffering — while every accepted request is still answered.
func TestServerAdmissionControl(t *testing.T) {
	_, tbl := testModel(t)
	slow := &faultinject.SlowEstimator{Delay: 40 * time.Millisecond, Value: 0.5}
	s, err := NewInjected(Config{
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
		QueueDepth:  2,
		MaxInFlight: 1,
	}, tbl, slow, &faultinject.ConstEstimator{Value: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)

	q := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 1, Seed: 92}).Queries[0]
	const n = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	var rejected, served int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Estimate(context.Background(), q)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, ErrOverloaded):
				rejected++
			case err == nil:
				served++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if rejected == 0 {
		t.Fatal("queue of depth 2 absorbed 24 concurrent requests without rejecting")
	}
	if served == 0 {
		t.Fatal("no request was served at all")
	}
	st := s.Stats()
	if st.Rejected != uint64(rejected) || st.Accepted != uint64(served) {
		t.Fatalf("stats (accepted=%d rejected=%d) disagree with observed (%d, %d)",
			st.Accepted, st.Rejected, served, rejected)
	}
}

// TestServerDeadlinePartialBatch pins partial-batch completion: a request
// with a tight deadline is rescued by the cheap tier at its deadline, while
// its batch-mate without a deadline rides the slow primary to completion.
func TestServerDeadlinePartialBatch(t *testing.T) {
	_, tbl := testModel(t)
	slow := &faultinject.SlowEstimator{Delay: 300 * time.Millisecond, Value: 0.5}
	s, err := NewInjected(Config{
		MaxBatch:    4,
		BatchWindow: 50 * time.Millisecond,
		TierTimeout: 5 * time.Second,
	}, tbl, slow, &faultinject.ConstEstimator{Value: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)

	q := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 1, Seed: 93}).Queries[0]
	var wg sync.WaitGroup
	var tight, patient Result
	wg.Add(2)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		res, err := s.Estimate(ctx, q)
		if err != nil {
			t.Errorf("tight: %v", err)
			return
		}
		if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
			t.Errorf("tight request took %v, its 100ms deadline was not honored", elapsed)
		}
		tight = res
	}()
	go func() {
		defer wg.Done()
		res, err := s.Estimate(context.Background(), q)
		if err != nil {
			t.Errorf("patient: %v", err)
			return
		}
		patient = res
	}()
	wg.Wait()
	if tight.Source != SourceDeadline || tight.Selectivity != 0.25 {
		t.Fatalf("tight request got (%v, %q), want cheap-tier 0.25 via %q",
			tight.Selectivity, tight.Source, SourceDeadline)
	}
	if patient.Source != SourceBatch || patient.Selectivity != 0.5 {
		t.Fatalf("patient request got (%v, %q), want slow primary 0.5 via %q",
			patient.Selectivity, patient.Source, SourceBatch)
	}
	if st := s.Stats(); st.DeadlineFallbacks == 0 {
		t.Fatal("deadline fallback not counted")
	}
}

// TestServerDeadlineFallbacksNotOvercounted: a request answered by its batch
// whose context is cancelled right after Estimate returns (as an HTTP
// handler's is) must not count as a deadline fallback, even when its
// watchdog only wakes once both the batch and the cancellation are done.
func TestServerDeadlineFallbacksNotOvercounted(t *testing.T) {
	_, tbl := testModel(t)
	s, err := NewInjected(Config{
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
	}, tbl, &faultinject.ConstEstimator{Value: 0.5}, &faultinject.ConstEstimator{Value: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	q := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 1, Seed: 97}).Queries[0]
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		res, err := s.Estimate(ctx, q)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != SourceBatch {
			t.Fatalf("request %d answered by %q, want %q", i, res.Source, SourceBatch)
		}
	}
	mustClose(t, s) // waits for every dispatch and its watchdogs
	if st := s.Stats(); st.DeadlineFallbacks != 0 {
		t.Fatalf("%d deadline fallbacks counted, but every request was answered by its batch", st.DeadlineFallbacks)
	}
}

// TestServerShedMode drives the EWMA over the shed threshold with a slow
// primary and checks the server degrades to the cheap tier instead of
// queueing behind the model.
func TestServerShedMode(t *testing.T) {
	_, tbl := testModel(t)
	slow := &faultinject.SlowEstimator{Delay: 30 * time.Millisecond, Value: 0.5}
	s, err := NewInjected(Config{
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
		MaxInFlight: 1,
		ShedLatency: 5 * time.Millisecond,
	}, tbl, slow, &faultinject.ConstEstimator{Value: 0.125})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)

	q := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 1, Seed: 94}).Queries[0]
	sawShed := false
	for i := 0; i < 40 && !sawShed; i++ {
		res, err := s.Estimate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source == SourceShed {
			sawShed = true
			if res.Selectivity != 0.125 {
				t.Fatalf("shed answer %v did not come from the cheap tier", res.Selectivity)
			}
		}
	}
	if !sawShed {
		t.Fatal("EWMA latency 6x over threshold never triggered shed mode")
	}
	if st := s.Stats(); st.ShedServed == 0 {
		t.Fatal("shed counter not recorded")
	}
}

// TestServerSwapAndRollback installs a poisoned version and checks the
// rejection-rate monitor rolls back to the previous one automatically —
// with every answer along the way still valid.
func TestServerSwapAndRollback(t *testing.T) {
	_, tbl := testModel(t)
	s, err := NewInjected(Config{
		MaxBatch:         1,
		BatchWindow:      time.Millisecond,
		RollbackMinCalls: 5,
	}, tbl, &faultinject.ConstEstimator{Value: 0.4}, &faultinject.ConstEstimator{Value: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)

	q := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 1, Seed: 95}).Queries[0]
	if res, err := s.Estimate(context.Background(), q); err != nil || res.Selectivity != 0.4 || res.Version != 1 {
		t.Fatalf("v1 answer (%+v, %v), want 0.4 from version 1", res, err)
	}

	// v2's primary returns NaN on every call: guard rejects it, the cheap
	// tier answers, and after RollbackMinCalls the monitor reverts to v1.
	if _, err := s.SwapInjected(&faultinject.BadValueEstimator{Value: math.NaN()}, &faultinject.ConstEstimator{Value: 0.1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		res, err := s.Estimate(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Selectivity < 0 || res.Selectivity > 1 {
			t.Fatalf("invalid selectivity %v leaked to a client", res.Selectivity)
		}
		if res.Version == 1 && res.Source == SourceBatch && res.Selectivity == 0.4 {
			break // rolled back
		}
	}
	st := s.Stats()
	if st.Rollbacks != 1 || st.Version != 1 {
		t.Fatalf("rollbacks=%d version=%d, want exactly one rollback to version 1", st.Rollbacks, st.Version)
	}
	if res, err := s.Estimate(context.Background(), q); err != nil || res.Selectivity != 0.4 || res.Version != 1 {
		t.Fatalf("post-rollback answer (%+v, %v), want 0.4 from version 1", res, err)
	}
}

// TestServerGracefulShutdown checks the drain contract: accepted requests
// are answered, late arrivals get ErrClosed, Close is idempotent, and the
// served model is flushed to SavePath.
func TestServerGracefulShutdown(t *testing.T) {
	m, tbl := testModel(t)
	savePath := filepath.Join(t.TempDir(), "served.model")
	s, err := New(Config{BatchWindow: 20 * time.Millisecond, SavePath: savePath}, tbl, m)
	if err != nil {
		t.Fatal(err)
	}
	q := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 1, Seed: 96}).Queries[0]

	var inflight Result
	var inflightErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inflight, inflightErr = s.Estimate(context.Background(), q)
	}()
	time.Sleep(5 * time.Millisecond) // let it enter the queue
	mustClose(t, s)
	wg.Wait()
	if inflightErr != nil {
		t.Fatalf("request accepted before Close was not answered: %v", inflightErr)
	}
	if inflight.Selectivity < 0 || inflight.Selectivity > 1 {
		t.Fatalf("drained request got invalid selectivity %v", inflight.Selectivity)
	}
	if _, err := s.Estimate(context.Background(), q); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Estimate error = %v, want ErrClosed", err)
	}
	mustClose(t, s) // idempotent

	f, err := os.Open(savePath)
	if err != nil {
		t.Fatalf("Close did not flush the model: %v", err)
	}
	defer func() { _ = f.Close() }() // read-only descriptor
	reloaded, err := core.Load(f, tbl)
	if err != nil {
		t.Fatalf("flushed model does not load: %v", err)
	}
	want, err := m.EstimateBatchSeeded([]*query.Query{q}, []int64{m.QuerySeed(q)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := reloaded.EstimateBatchSeeded([]*query.Query{q}, []int64{reloaded.QuerySeed(q)})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Fatalf("flushed model estimates %v, original %v", got[0], want[0])
	}
}

// TestServerBackgroundTrainingSwaps runs the retrain loop against a live
// server and checks epoch-boundary swaps land and the final model serves.
func TestServerBackgroundTrainingSwaps(t *testing.T) {
	m, tbl := testModel(t)
	s, err := New(Config{BatchWindow: 2 * time.Millisecond}, tbl, m)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)

	cfg := fixtureCfg()
	cfg.Seed = 8 // retrain a different generation
	errc, err := s.StartTraining(context.Background(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartTraining(context.Background(), cfg, 1); err == nil {
		t.Fatal("second concurrent StartTraining not rejected")
	}

	// Serve throughout the retrain.
	q := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 1, Seed: 97}).Queries[0]
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := s.Estimate(context.Background(), q)
			if err != nil {
				t.Errorf("estimate during retrain: %v", err)
				return
			}
			if res.Selectivity < 0 || res.Selectivity > 1 {
				t.Errorf("invalid selectivity %v during retrain", res.Selectivity)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	trainErr := <-errc
	close(stop)
	qwg.Wait()
	if trainErr != nil {
		t.Fatalf("background training: %v", trainErr)
	}
	st := s.Stats()
	// 3 epochs with swapEvery=1 → 3 clone swaps + 1 final swap.
	if st.Swaps != 4 || st.Version != 5 {
		t.Fatalf("swaps=%d version=%d, want 4 swaps ending at version 5", st.Swaps, st.Version)
	}
	res, err := s.Estimate(context.Background(), q)
	if err != nil || res.Version != 5 {
		t.Fatalf("post-retrain answer (%+v, %v), want version 5", res, err)
	}
}

// TestDeadlineExpiresWhileQueuedStillAnswered pins the admission edge the
// deadline machinery must not drop: a request admitted into the queue whose
// deadline expires before its batch ever reaches the dispatcher. The
// per-request watchdogs only guard requests inside a running batch, so the
// expired request is answered on the next dispatch's arrival sweep — late,
// but from the cheap tier, never an error and never a hang.
func TestDeadlineExpiresWhileQueuedStillAnswered(t *testing.T) {
	_, tbl := testModel(t)
	slow := &faultinject.SlowEstimator{Delay: 400 * time.Millisecond, Value: 0.5}
	s, err := NewInjected(Config{
		MaxBatch:    1,
		BatchWindow: time.Millisecond,
		QueueDepth:  4,
		MaxInFlight: 1,
	}, tbl, slow, &faultinject.ConstEstimator{Value: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	q := testutil.Workload(t, tbl, query.GenConfig{NumQueries: 1, Seed: 93}).Queries[0]

	// Occupy the single dispatcher slot for 400ms.
	blockerDone := make(chan error, 1)
	go func() {
		_, err := s.Estimate(context.Background(), q)
		blockerDone <- err
	}()
	// Wait until the blocker is actually dispatched (queue drained), then
	// enqueue the victim with a deadline far shorter than the 400ms block.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Batches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker batch never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := s.Estimate(ctx, q)
	if err != nil {
		t.Fatalf("queued request whose deadline expired got error %v, want a fallback answer", err)
	}
	if res.Source != SourceDeadline {
		t.Fatalf("source = %q, want %q (deadline expired before the batch ran)", res.Source, SourceDeadline)
	}
	if res.Selectivity < 0 || res.Selectivity > 1 {
		t.Fatalf("fallback selectivity %v out of range", res.Selectivity)
	}
	// The answer could only arrive after the blocker freed the dispatcher —
	// i.e. the deadline genuinely expired while the victim was queued.
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("victim answered after %v — it never actually waited behind the blocker", waited)
	}
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	if st := s.Stats(); st.DeadlineFallbacks == 0 {
		t.Fatal("stats count zero deadline fallbacks")
	}
}
