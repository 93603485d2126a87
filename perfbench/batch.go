package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/query"
	"iam/internal/serve"
)

// batchBench runs batch-wisdm: one library caller sending back-to-back
// 64-query EstimateBatch calls, no server.
type batchBench struct {
	seed int64

	in    *inputs
	model *core.Model
	train trainStats
	// answers[j] is batch j's first answer; every later answer must match
	// it bit for bit.
	answers [][]float64
	order   []int // the seed's permutation of the batches: the call order
	next    int   // position in order of the next call
}

func (b *batchBench) describe() string {
	return fmt.Sprintf("table=SynthWISDM rows=%d queries=%d loop=closed callers=1 batch=%d workers=1 train_workers=2 mass_cache=256",
		rows, numQueries, batchSize)
}

func (b *batchBench) batch(j int) []*query.Query {
	return b.in.queries[j*batchSize : (j+1)*batchSize]
}

// call sends batch j and applies its gate: every estimate is a selectivity,
// and a repeated batch gets exactly its first answers.
func (b *batchBench) call(j int) error {
	ests, err := b.model.EstimateBatch(b.batch(j))
	if err != nil {
		return err
	}
	for i, v := range ests {
		if !validSel(v) {
			return fmt.Errorf("gate: batch %d query %d: estimate %v is not a selectivity", j, i, v)
		}
	}
	if b.answers[j] == nil {
		b.answers[j] = ests
		return nil
	}
	for i, v := range ests {
		if !sameBits(v, b.answers[j][i]) {
			return fmt.Errorf("gate: batch %d query %d: repeated estimate %v differs from %v", j, i, v, b.answers[j][i])
		}
	}
	return nil
}

func (b *batchBench) setup(ctx context.Context) (float64, error) {
	start := time.Now()
	var err error
	if b.model, b.train, err = trainCore(ctx, b.in.table, wisdmConfig()); err != nil {
		return 0, err
	}
	b.answers = make([][]float64, len(b.order))
	b.next = 0
	if err := b.call(b.order[b.next]); err != nil {
		return 0, fmt.Errorf("first answer: %w", err)
	}
	b.next++
	return time.Since(start).Seconds(), nil
}

func (b *batchBench) start(ctx context.Context, n int) (setupS, heapMB []float64, ph phase, err error) {
	if b.in, err = makeInputs(dataset.SynthWISDM(rows, modelSeed)); err != nil {
		return nil, nil, ph, err
	}
	b.order = rand.New(rand.NewSource(b.seed)).Perm(numQueries / batchSize)
	ph.name = "setup"
	base := liveHeap()
	for i := 0; i < n; i++ {
		b.model = nil
		s, err := b.setup(ctx)
		ph.add(err == nil)
		if err != nil {
			return nil, nil, ph, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS = append(setupS, s)
		heapMB = append(heapMB, (liveHeap()-base)/(1<<20))
	}
	return setupS, heapMB, ph, b.in.checkSeeds(b.model)
}

// drive calls batches back to back until d has passed (d > 0) or n calls
// were made (n > 0). A gate failure ends the run; tr records each call.
func (b *batchBench) drive(name string, d time.Duration, n int, tr *tracer) (*loadResult, error) {
	l := &loadResult{ph: phase{name: name}, perReq: batchSize}
	start := time.Now()
	for k := 0; (d <= 0 || time.Since(start) < d) && (n <= 0 || k < n); k++ {
		j := b.order[b.next%len(b.order)]
		b.next++
		sp := tr.begin("core.estimate_batch", j, 0)
		t0 := time.Now()
		err := b.call(j)
		l.reqs = append(l.reqs, newReqTime(start, t0, err == nil))
		tr.end(sp)
		l.ph.add(err == nil)
		if err != nil {
			return nil, fmt.Errorf("%s batch %d: %w", name, j, err)
		}
	}
	l.elapsed = time.Since(start)
	return l, nil
}

// rest answers, untimed, the batches the timed phase did not reach, so
// q-error always covers every query.
func (b *batchBench) rest() ([]float64, error) {
	var all []float64
	for j := range b.answers {
		if b.answers[j] == nil {
			if err := b.call(j); err != nil {
				return nil, err
			}
		}
		all = append(all, b.answers[j]...)
	}
	return all, nil
}

func (b *batchBench) untraced(ctx context.Context, d time.Duration) (*result, error) {
	setupS, heapMB, setupPh, err := b.start(ctx, setups)
	if err != nil {
		return nil, err
	}
	warm, err := b.drive("warmup", 0, 1, nil)
	if err != nil {
		return nil, err
	}
	timed, err := b.drive("timed", d, 0, nil)
	if err != nil {
		return nil, err
	}
	est, err := b.rest()
	if err != nil {
		return nil, err
	}
	for _, p := range []phase{setupPh, warm.ph, timed.ph} {
		p.print()
	}
	res := &result{Correct: true, Attempted: timed.ph.attempted, Failed: timed.ph.failed}
	res.set("setup_s", median(setupS), "s")
	if err := setTimed(res, timed); err != nil {
		return nil, err
	}
	setQError(res, est, b.in.truth)
	res.set("success_rate", float64(timed.ph.attempted-timed.ph.failed)/float64(timed.ph.attempted), "fraction")
	res.set("model_bytes", float64(b.model.SizeBytes()), "bytes")
	res.set("heap_mb", median(heapMB), "MB")
	return res, nil
}

func (b *batchBench) traced(ctx context.Context, d time.Duration) (res *result, tr *tracer, err error) {
	_, _, setupPh, err := b.start(ctx, 1)
	if err != nil {
		return nil, nil, err
	}
	warm, err := b.drive("warmup", 0, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	tr = newTracer()
	plain, err := b.drive("untraced", d/2, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	traced, err := b.drive("traced", d/2, 0, tr)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range []phase{setupPh, warm.ph, plain.ph, traced.ph} {
		p.print()
	}
	res = &result{Correct: true, Attempted: traced.ph.attempted, Failed: traced.ph.failed}
	res.set("trace.overhead_frac", 1-traced.qps()/plain.qps(), "fraction")

	// The core layer first, on the library's own configuration; serving
	// the model afterwards switches step fusion on.
	st := &stack{in: b.in, served: b.model, model: b.model, modelQs: b.in.queries, train: b.train}
	if err := measureCore(tr, st, res); err != nil {
		return nil, nil, err
	}
	// http, query, serve and guard are off this workload's path; they are
	// measured on its model and queries behind the shipped handler.
	if st.srv, err = serve.New(serveConfig(), b.in.table, b.model); err != nil {
		return nil, nil, fmt.Errorf("starting server: %w", err)
	}
	h, err := listen(st.srv)
	if err != nil {
		return nil, nil, errors.Join(err, st.srv.Close())
	}
	st.url = h.url
	st0 := st.srv.Stats()
	err = measureRequestPath(ctx, tr, st, res)
	setServeStats(res, st0, st.srv.Stats())
	if err = errors.Join(err, h.close(), st.srv.Close()); err != nil {
		return nil, nil, err
	}
	if st.ens, st.shardBytes, err = trainEnsemble(ctx, b.in.table, wisdmConfig()); err != nil {
		return nil, nil, err
	}
	if err := measureShard(tr, st, res); err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}
