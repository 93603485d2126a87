package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"iam/internal/atomicfile"
	"iam/internal/core"
	"iam/internal/nn"
	"iam/internal/query"
	"iam/internal/serve"
	"iam/internal/shard"
)

// span is one timed call into a layer, made by the benchmark. Spans of one
// request share Req; Parent is the ID of the span whose layer called this
// one (0 for a root). Query is the query index the call carried (for
// core.estimate_batch and core.estimate_b64, the batch index).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Query  int    `json:"query"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory until dump. A nil tracer records nothing, so
// the untraced phases share the traced code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer {
	// Preallocated so recording a span does not allocate, which keeps the
	// malloc counts taken around traced calls clean.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span as part of a new request when req is 0.
func (t *tracer) begin(name string, query, parent int) int {
	return t.beginReq(name, 0, query, parent)
}

func (t *tracer) beginReq(name string, req, query, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if req == 0 {
		t.reqs++
		req = t.reqs
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Query: query, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

func (t *tracer) req(id int) int { return t.spans[id-1].Req }

// durs returns the duration in µs of every span named name.
func (t *tracer) durs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.us())
		}
	}
	return out
}

// self returns, for every span named name that has children, its duration
// minus its children's durations, in µs.
func (t *tracer) self(name string) []float64 {
	kids := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] += s.us()
		}
	}
	var out []float64
	for _, s := range t.spans {
		if c, ok := kids[s.ID]; ok && s.Name == name {
			out = append(out, s.us()-c)
		}
	}
	return out
}

// dump writes the spans as JSON under .bench_build/perfbench.
func (t *tracer) dump(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	err := atomicfile.WriteFile(path, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
			Spans    []span `json:"spans"`
		}{workload, seed, t.spans})
	})
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	fmt.Printf("spans %d written to %s\n", len(t.spans), path)
	return nil
}

// stack is what the per-layer replays call into: the request path (HTTP
// handler, parser, server, the model or ensemble it serves), a core model of
// the workload, and an ensemble with its shards saved.
type stack struct {
	in         *inputs
	url        string
	srv        *serve.Server
	served     seeded
	model      *core.Model
	modelQs    []*query.Query // the queries bound to model's table
	train      trainStats
	ens        *shard.Ensemble
	shardBytes [][]byte
}

// sample is the fixed, evenly spread subset of query indices replayed
// through each layer.
func sample() []int {
	out := make([]int, replays)
	for i := range out {
		out[i] = i * numQueries / replays
	}
	return out
}

// measureLayers runs every per-layer replay of the stack.
func measureLayers(ctx context.Context, tr *tracer, st *stack, r *result) error {
	if err := measureCore(tr, st, r); err != nil {
		return err
	}
	if err := measureRequestPath(ctx, tr, st, r); err != nil {
		return err
	}
	return measureShard(tr, st, r)
}

// measureCore times the core model alone: 64-query batches, the first
// estimate after Load, sampling error, training, and the nn forward.
func measureCore(tr *tracer, st *stack, r *result) error {
	m, qs := st.model, st.modelQs
	a0 := mallocs()
	for bi := 0; bi < 2; bi++ {
		sp := tr.begin("core.estimate_b64", bi, 0)
		_, err := m.EstimateBatch(qs[bi*batchSize : (bi+1)*batchSize])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("core batch: %w", err)
		}
	}
	r.set("core.allocs_per_query_b64", float64(mallocs()-a0)/(2*batchSize), "count")
	r.set("core.estimate_us_b64", mean(tr.durs("core.estimate_b64"))/batchSize, "us")

	seeds := make([]int64, batchSize)
	for i := range seeds {
		seeds[i] = m.QuerySeed(qs[i])
	}
	ests, vars, err := m.EstimateBatchVarSeeded(qs[:batchSize], seeds)
	if err != nil {
		return fmt.Errorf("core variance: %w", err)
	}
	var rel []float64
	for i, e := range ests {
		if e > 0 {
			rel = append(rel, math.Sqrt(vars[i])/e)
		}
	}
	r.set("core.rel_stderr_p50", median(rel), "ratio")

	var saved bytes.Buffer
	if err := m.Save(&saved); err != nil {
		return fmt.Errorf("saving model: %w", err)
	}
	for i := 0; i < 3; i++ {
		fresh, err := core.Load(bytes.NewReader(saved.Bytes()), m.Table())
		if err != nil {
			return fmt.Errorf("loading model: %w", err)
		}
		sp := tr.begin("core.first_estimate", 0, 0)
		_, err = estimateB1(fresh, qs[0])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("first estimate: %w", err)
		}
	}
	r.set("core.first_estimate_ms", median(tr.durs("core.first_estimate"))/1e3, "ms")

	r.set("core.train_s", st.train.seconds, "s")
	r.set("core.train_rows_per_s", st.train.rows*st.train.epochs/st.train.seconds, "rows/s")
	r.set("core.ar_nll_final", st.train.arNLL, "nats")
	r.set("core.gmm_nll_final", st.train.gmmNLL, "nats")

	cards := m.ARColumns()
	net, err := nn.NewResMADE(nn.Config{Cards: cards, Hidden: twiConfig().Hidden, EmbedDim: 32, Seed: modelSeed})
	if err != nil {
		return fmt.Errorf("building ResMADE: %w", err)
	}
	const sp = 800 // S_p, progressive-sampling paths per query
	sess := net.NewSession(sp)
	rng := rand.New(rand.NewSource(modelSeed))
	rowsIn := make([][]int, sp)
	for i := range rowsIn {
		rowsIn[i] = make([]int, len(cards))
		for j, c := range cards {
			rowsIn[i][j] = rng.Intn(c)
		}
	}
	for k := 0; k < 40; k++ {
		id := tr.begin("nn.forward", 0, 0)
		sess.Forward(rowsIn)
		tr.end(id)
	}
	r.set("nn.forward_rows_per_s", sp/(mean(tr.durs("nn.forward"))/1e6), "rows/s")
	return nil
}

// measureRequestPath replays each sampled request alone: the HTTP request,
// then query.Parse of its text, Server.Estimate of the parsed query, and the
// served model's in-process estimate, as children of the request span.
func measureRequestPath(ctx context.Context, tr *tracer, st *stack, r *result) error {
	child := "core.estimate"
	if st.ens != nil && st.served == seeded(st.ens) {
		child = "shard.estimate"
	}
	c := newClient()
	defer c.hc.CloseIdleConnections()
	for _, qi := range sample() {
		root := tr.begin("http.request", qi, 0)
		_, err := c.post(st.url, st.in.bodies[qi])
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replaying query %d: %w", qi, err)
		}
		req := tr.req(root)
		sp := tr.beginReq("query.parse", req, qi, root)
		q, err := query.Parse(st.in.table, st.in.texts[qi])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replaying query %d: %w", qi, err)
		}
		sp = tr.beginReq("serve.estimate", req, qi, root)
		res, err := st.srv.Estimate(ctx, q)
		tr.end(sp)
		if err != nil || res.Source != serve.SourceBatch {
			return fmt.Errorf("replaying query %d: source %q: %v", qi, res.Source, err)
		}
		ch := tr.beginReq(child, req, qi, sp)
		_, err = estimateB1(st.served, q)
		tr.end(ch)
		if err != nil {
			return fmt.Errorf("replaying query %d: %w", qi, err)
		}
	}
	r.set("http.self_us_p50", median(tr.self("http.request")), "us")
	r.set("query.parse_us_p50", median(tr.durs("query.parse")), "us")
	r.set("serve.self_us_p50", median(tr.self("serve.estimate")), "us")
	if child == "core.estimate" {
		r.set("core.estimate_us_b1", mean(tr.durs("core.estimate")), "us")
	}

	const n = 16
	a0 := mallocs()
	for _, qi := range sample()[:n] {
		if _, err := st.srv.Estimate(ctx, st.in.queries[qi]); err != nil {
			return fmt.Errorf("serve allocations: %w", err)
		}
	}
	r.set("serve.allocs_per_request", float64(mallocs()-a0)/n, "count")
	return nil
}

// setServeStats reports the server's counters over a stretch of traffic.
func setServeStats(r *result, a, b serve.Stats) {
	accepted := float64(b.Accepted - a.Accepted)
	attempts := accepted + float64(b.Rejected-a.Rejected)
	r.set("serve.batch_size_mean", accepted/float64(b.Batches-a.Batches), "queries")
	r.set("serve.rejected_frac", float64(b.Rejected-a.Rejected)/attempts, "fraction")
	r.set("serve.degraded_frac", float64(b.ShedServed+b.DeadlineFallbacks-a.ShedServed-a.DeadlineFallbacks)/attempts, "fraction")
	fails := float64(b.Cascade[0].Failures() - a.Cascade[0].Failures())
	served := float64(b.Cascade[0].Served - a.Cascade[0].Served)
	r.set("guard.primary_fail_frac", fails/(fails+served), "fraction")
}

// measureShard replays the sample through the ensemble, and each sampled
// query through every shard model alone on the variance path the ensemble's
// early-stop merge calls, then replaces each shard with a model loaded from
// its saved bytes. The merge's self time for a query is the ensemble's time
// minus the model times of the shards it visited: EarlyStopStats counts them,
// and the ensemble visits equal-weight shards in index order.
func measureShard(tr *tracer, st *stack, r *result) error {
	e := st.ens
	k := e.NumShards()
	shardQs := make([][]*query.Query, k)
	for i := range shardQs {
		shardQs[i] = rebind(st.in.queries, e.ShardTable(i))
		// A freshly loaded shard pays its mass preprocessing on its first
		// estimate; warm it so the replay times steady-state estimates.
		m, q := e.ShardModel(i), shardQs[i][0]
		if _, _, err := m.EstimateBatchVarSeeded([]*query.Query{q}, []int64{m.QuerySeed(q)}); err != nil {
			return fmt.Errorf("warming shard %d: %w", i, err)
		}
	}
	if _, err := estimateB1(e, st.in.queries[0]); err != nil {
		return fmt.Errorf("warming ensemble: %w", err)
	}
	v0, s0 := e.EarlyStopStats()
	var merge []float64
	for _, qi := range sample() {
		before, _ := e.EarlyStopStats()
		root := tr.begin("shard.estimate", qi, 0)
		_, err := estimateB1(e, st.in.queries[qi])
		tr.end(root)
		if err != nil {
			return fmt.Errorf("ensemble estimate: %w", err)
		}
		after, _ := e.EarlyStopStats()
		self := tr.spans[root-1].us()
		for i := 0; i < k; i++ {
			m, q := e.ShardModel(i), shardQs[i][qi]
			sp := tr.beginReq("shard.model_estimate", tr.req(root), qi, root)
			_, _, err := m.EstimateBatchVarSeeded([]*query.Query{q}, []int64{m.QuerySeed(q)})
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("shard %d estimate: %w", i, err)
			}
			if uint64(i) < after-before {
				self -= tr.spans[sp-1].us()
			}
		}
		merge = append(merge, self)
	}
	v1, s1 := e.EarlyStopStats()
	r.set("shard.visit_frac", float64(v1-v0)/float64(v1-v0+s1-s0), "fraction")
	r.set("shard.estimate_us_b1", mean(tr.durs("shard.estimate")), "us")
	r.set("shard.merge_self_us", mean(merge), "us")
	if _, ok := r.Metrics["core.estimate_us_b1"]; !ok {
		r.set("core.estimate_us_b1", mean(tr.durs("shard.model_estimate")), "us")
	}

	const n = 16
	a0 := mallocs()
	for _, qi := range sample()[:n] {
		if _, err := estimateB1(e, st.in.queries[qi]); err != nil {
			return fmt.Errorf("ensemble allocations: %w", err)
		}
	}
	r.set("shard.allocs_per_query", float64(mallocs()-a0)/n, "count")

	for i := 0; i < k; i++ {
		sp := tr.begin("shard.load", i, 0)
		m, err := core.Load(bytes.NewReader(st.shardBytes[i]), e.ShardTable(i))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("loading shard %d: %w", i, err)
		}
		sp = tr.beginReq("shard.replace", tr.req(sp), i, 0)
		err = e.ReplaceShard(i, m)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replacing shard %d: %w", i, err)
		}
		sp = tr.beginReq("shard.post_replace", tr.req(sp), 0, 0)
		_, err = estimateB1(e, st.in.queries[0])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("estimate after replacing shard %d: %w", i, err)
		}
	}
	r.set("shard.load_ms", median(tr.durs("shard.load"))/1e3, "ms")
	r.set("shard.replace_ms", median(tr.durs("shard.replace"))/1e3, "ms")
	r.set("shard.post_replace_us", median(tr.durs("shard.post_replace")), "us")
	return nil
}
