package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/serve"
	"iam/internal/shard"
)

// serveBench runs serve-twi (a single model) and swap-ensemble-twi (a
// sharded ensemble whose shards client 0 hot-swaps), both behind the
// shipped HTTP handler on loopback.
type serveBench struct {
	seed     int64
	ensemble bool

	in      *inputs
	order   []int // the seed's permutation of the queries: the request order
	sys     *serveSystem
	clients []*client
	// probeRef holds the probe answers every swap is checked against.
	probeRef []float64
	swaps    int
}

func (b *serveBench) describe() string {
	if b.ensemble {
		return fmt.Sprintf("table=SynthTWI rows=%d queries=%d loop=closed clients=%d shards=%d early_stop_rel_err=0.2 swap_every=%d",
			rows, numQueries, numClients, numShards, swapEvery)
	}
	return fmt.Sprintf("table=SynthTWI rows=%d queries=%d loop=closed clients=%d max_batch=32 batch_window=2ms",
		rows, numQueries, numClients)
}

// serveSystem is one set-up: the trained model or ensemble, the server over
// it and the loopback HTTP listener.
type serveSystem struct {
	served     seeded
	model      *core.Model     // serve-twi: the served model
	ens        *shard.Ensemble // swap-ensemble-twi: the served ensemble
	shardBytes [][]byte        // swap-ensemble-twi: each shard saved, the replacements
	train      trainStats
	srv        *serve.Server
	http       *httpServer
}

func (s *serveSystem) close() error {
	return errors.Join(s.http.close(), s.srv.Close())
}

// httpServer is the shipped handler listening on 127.0.0.1.
type httpServer struct {
	url  string // POST /estimate endpoint
	hs   *http.Server
	done chan error
}

func listen(srv *serve.Server) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	h := &httpServer{url: "http://" + ln.Addr().String() + "/estimate", hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1)}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

func (h *httpServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if e := <-h.done; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	return err
}

// trainEnsemble trains the swap workload's ensemble, saves it and returns a
// copy loaded from those bytes, together with each of its shards saved.
func trainEnsemble(ctx context.Context, t *dataset.Table, cfg core.Config) (*shard.Ensemble, [][]byte, error) {
	e, err := shard.TrainContext(ctx, t, ensembleConfig(cfg))
	if err != nil {
		return nil, nil, fmt.Errorf("training ensemble: %w", err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		return nil, nil, fmt.Errorf("saving ensemble: %w", err)
	}
	cp, err := shard.Load(&buf, t)
	if err != nil {
		return nil, nil, fmt.Errorf("loading ensemble: %w", err)
	}
	shardBytes := make([][]byte, cp.NumShards())
	for i := range shardBytes {
		var sb bytes.Buffer
		if err := cp.ShardModel(i).Save(&sb); err != nil {
			return nil, nil, fmt.Errorf("saving shard %d: %w", i, err)
		}
		shardBytes[i] = sb.Bytes()
	}
	return cp, shardBytes, nil
}

// setup builds the system from the table and returns it with the seconds
// from the start of model construction to the first successful answer.
func (b *serveBench) setup(ctx context.Context) (*serveSystem, float64, error) {
	start := time.Now()
	sys := &serveSystem{}
	var err error
	if b.ensemble {
		sys.ens, sys.shardBytes, err = trainEnsemble(ctx, b.in.table, twiConfig())
		if err != nil {
			return nil, 0, err
		}
		sys.served = sys.ens
		sys.srv, err = serve.NewEnsemble(serveConfig(), b.in.table, sys.ens)
	} else {
		sys.model, sys.train, err = trainCore(ctx, b.in.table, twiConfig())
		if err != nil {
			return nil, 0, err
		}
		sys.served = sys.model
		sys.srv, err = serve.New(serveConfig(), b.in.table, sys.model)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("starting server: %w", err)
	}
	if sys.http, err = listen(sys.srv); err != nil {
		return nil, 0, errors.Join(err, sys.srv.Close())
	}
	c := newClient()
	_, err = c.post(sys.http.url, b.in.bodies[0])
	c.hc.CloseIdleConnections()
	if err != nil {
		return nil, 0, errors.Join(fmt.Errorf("first answer: %w", err), sys.close())
	}
	return sys, time.Since(start).Seconds(), nil
}

// client is one closed-loop caller holding exactly one keep-alive
// connection: MaxConnsPerHost 1 makes a request wait for the connection
// rather than dial another, and dials counts every connection opened.
type client struct {
	hc    *http.Client
	dials atomic.Int64
	sent  int // requests sent so far; picks the next query
}

func newClient() *client {
	c := &client{}
	var d net.Dialer
	c.hc = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}}
	return c
}

// post sends one POST /estimate. It fails on a transport error, a non-200
// status or an answer not computed by the model batch path.
func (c *client) post(url string, body []byte) (serve.EstimateResponse, error) {
	var out serve.EstimateResponse
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	raw, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return out, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return out, fmt.Errorf("decoding response: %w", err)
	}
	if out.Source != serve.SourceBatch {
		return out, fmt.Errorf("answer source %q, want %q", out.Source, serve.SourceBatch)
	}
	return out, nil
}

// answer is one successful reply: the query index and its selectivity.
type answer struct {
	qi  int
	sel float64
}

// loadResult is one closed-loop phase.
type loadResult struct {
	ph      phase
	reqs    []reqTime // every attempted request
	perReq  float64   // queries a request carries
	answers []answer
	elapsed time.Duration
}

// qps is the phase's queries answered per wall second.
func (l *loadResult) qps() float64 { return float64(l.ph.succeeded) * l.perReq / l.elapsed.Seconds() }

// drive runs every client in a closed loop until d has passed (d > 0) or
// each has sent n requests (n > 0). Client c's k-th request overall carries
// query order[(c + numClients·k) mod numQueries], so the clients always send
// distinct texts. With swaps set, client 0 replaces a shard every swapEvery
// of its requests; with tr set, every request is recorded as a span.
func (b *serveBench) drive(name string, d time.Duration, n int, swaps bool, tr *tracer) (*loadResult, error) {
	res := make([]loadResult, len(b.clients))
	errs := make([]error, len(b.clients))
	var stop atomic.Bool
	var firstFail sync.Once
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range b.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			r := &res[ci]
			for k := 0; !stop.Load(); k++ {
				if (d > 0 && time.Since(start) >= d) || (n > 0 && k >= n) {
					return
				}
				if swaps && ci == 0 && k > 0 && k%swapEvery == 0 {
					if err := b.swap(); err != nil {
						errs[ci] = err
						stop.Store(true)
						return
					}
				}
				qi := b.order[(ci+numClients*c.sent)%numQueries]
				c.sent++
				sp := tr.begin("http.request", qi, 0)
				t0 := time.Now()
				resp, err := c.post(b.sys.http.url, b.in.bodies[qi])
				r.reqs = append(r.reqs, newReqTime(start, t0, err == nil))
				tr.end(sp)
				r.ph.add(err == nil)
				if err != nil {
					firstFail.Do(func() { fmt.Fprintf(os.Stderr, "perfbench: %s request for query %d failed: %v\n", name, qi, err) })
					continue
				}
				r.answers = append(r.answers, answer{qi, resp.Selectivity})
			}
		}(ci, c)
	}
	wg.Wait()
	out := &loadResult{ph: phase{name: name}, perReq: 1, elapsed: time.Since(start)}
	for _, r := range res {
		out.ph.attempted += r.ph.attempted
		out.ph.succeeded += r.ph.succeeded
		out.ph.failed += r.ph.failed
		out.reqs = append(out.reqs, r.reqs...)
		out.answers = append(out.answers, r.answers...)
	}
	return out, errors.Join(errs...)
}

// swap is client 0's write: it checks that the probe answers are unchanged
// since setup, then replaces the next shard with a model loaded from that
// shard's saved bytes. The first requests after the swap pay for the cold
// model; the probes are checked again at the next swap and after the run.
func (b *serveBench) swap() error {
	if err := b.checkProbes(); err != nil {
		return err
	}
	i := b.swaps % numShards
	b.swaps++
	m, err := core.Load(bytes.NewReader(b.sys.shardBytes[i]), b.sys.ens.ShardTable(i))
	if err != nil {
		return fmt.Errorf("loading shard %d: %w", i, err)
	}
	if err := b.sys.ens.ReplaceShard(i, m); err != nil {
		return fmt.Errorf("replacing shard %d: %w", i, err)
	}
	return nil
}

func (b *serveBench) probeAnswers() ([]float64, error) {
	qs := b.in.queries[:numProbes]
	seeds := make([]int64, len(qs))
	for i, q := range qs {
		seeds[i] = b.sys.ens.QuerySeed(q)
	}
	return b.sys.ens.EstimateBatchSeeded(qs, seeds)
}

func (b *serveBench) checkProbes() error {
	got, err := b.probeAnswers()
	if err != nil {
		return fmt.Errorf("probe estimate: %w", err)
	}
	for i, v := range got {
		if !sameBits(v, b.probeRef[i]) {
			return fmt.Errorf("gate: probe %d answer changed across shard swaps after %d swaps: %v, was %v", i, b.swaps, v, b.probeRef[i])
		}
	}
	return nil
}

// start sets the system up `n` times, keeping the last, and returns the
// set-up seconds and live-heap growth of each.
func (b *serveBench) start(ctx context.Context, n int) (setupS, heapMB []float64, ph phase, err error) {
	b.in, err = makeInputs(dataset.SynthTWI(rows, modelSeed))
	if err != nil {
		return nil, nil, ph, err
	}
	ph.name = "setup"
	base := liveHeap()
	for i := 0; i < n; i++ {
		if b.sys != nil {
			if err := b.sys.close(); err != nil {
				return nil, nil, ph, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
			b.sys = nil
		}
		sys, s, err := b.setup(ctx)
		ph.add(err == nil)
		if err != nil {
			return nil, nil, ph, fmt.Errorf("set-up %d: %w", i, err)
		}
		b.sys = sys
		setupS = append(setupS, s)
		heapMB = append(heapMB, (liveHeap()-base)/(1<<20))
	}
	if err := b.in.checkSeeds(b.sys.served); err != nil {
		return nil, nil, ph, err
	}
	if b.ensemble {
		if b.probeRef, err = b.probeAnswers(); err != nil {
			return nil, nil, ph, fmt.Errorf("probe estimate: %w", err)
		}
	}
	b.order = rand.New(rand.NewSource(b.seed)).Perm(numQueries)
	b.clients = []*client{newClient(), newClient()}
	return setupS, heapMB, ph, nil
}

// finish applies the run's gates: every HTTP answer equals the in-process
// estimateB1 bit for bit, the probes are unchanged after the last swap, and
// each client opened exactly one connection. It returns the reference
// answers for every query.
func (b *serveBench) finish(loads ...*loadResult) ([]float64, error) {
	ref, err := referenceB1(b.sys.served, b.in.queries)
	if err != nil {
		return nil, err
	}
	for _, l := range loads {
		for _, a := range l.answers {
			if !sameBits(a.sel, ref[a.qi]) {
				return nil, fmt.Errorf("gate: %s answer for query %d %q is %v over HTTP, %v in process", l.ph.name, a.qi, b.in.texts[a.qi], a.sel, ref[a.qi])
			}
		}
	}
	if b.ensemble {
		if err := b.checkProbes(); err != nil {
			return nil, err
		}
	}
	for ci, c := range b.clients {
		c.hc.CloseIdleConnections()
		if n := c.dials.Load(); n != 1 {
			return nil, fmt.Errorf("gate: client %d opened %d connections, want 1 keep-alive connection", ci, n)
		}
	}
	return ref, nil
}

func (b *serveBench) untraced(ctx context.Context, d time.Duration) (res *result, err error) {
	setupS, heapMB, setupPh, err := b.start(ctx, setups)
	if b.sys != nil {
		defer func() { err = errors.Join(err, b.sys.close()) }()
	}
	if err != nil {
		return nil, err
	}
	warm, err := b.drive("warmup", 0, warmupReqs, false, nil)
	if err != nil {
		return nil, err
	}
	timed, err := b.drive("timed", d, 0, b.ensemble, nil)
	if err != nil {
		return nil, err
	}
	ref, err := b.finish(warm, timed)
	if err != nil {
		return nil, err
	}
	for _, p := range []phase{setupPh, warm.ph, timed.ph} {
		p.print()
	}
	fmt.Printf("connections client0=%d client1=%d swaps=%d\n", b.clients[0].dials.Load(), b.clients[1].dials.Load(), b.swaps)
	if timed.ph.attempted < 1000 {
		fmt.Fprintf(os.Stderr, "perfbench: only %d timed requests; latency_p99_ms needs at least 1000\n", timed.ph.attempted)
	}

	res = &result{Correct: true, Attempted: timed.ph.attempted, Failed: timed.ph.failed}
	res.set("setup_s", median(setupS), "s")
	if err := setTimed(res, timed); err != nil {
		return nil, err
	}
	setQError(res, ref, b.in.truth)
	res.set("success_rate", float64(timed.ph.succeeded)/float64(timed.ph.attempted), "fraction")
	res.set("model_bytes", float64(b.sys.served.SizeBytes()), "bytes")
	res.set("heap_mb", median(heapMB), "MB")
	return res, nil
}

func (b *serveBench) traced(ctx context.Context, d time.Duration) (res *result, tr *tracer, err error) {
	_, _, setupPh, err := b.start(ctx, 1)
	if b.sys != nil {
		defer func() { err = errors.Join(err, b.sys.close()) }()
	}
	if err != nil {
		return nil, nil, err
	}
	warm, err := b.drive("warmup", 0, warmupReqs, false, nil)
	if err != nil {
		return nil, nil, err
	}
	tr = newTracer()
	st0 := b.sys.srv.Stats()
	plain, err := b.drive("untraced", d/2, 0, b.ensemble, nil)
	if err != nil {
		return nil, nil, err
	}
	traced, err := b.drive("traced", d/2, 0, b.ensemble, tr)
	if err != nil {
		return nil, nil, err
	}
	st1 := b.sys.srv.Stats()
	if _, err := b.finish(warm, plain, traced); err != nil {
		return nil, nil, err
	}
	for _, p := range []phase{setupPh, warm.ph, plain.ph, traced.ph} {
		p.print()
	}

	st := &stack{in: b.in, url: b.sys.http.url, srv: b.sys.srv, served: b.sys.served, train: b.sys.train}
	if b.ensemble {
		st.ens, st.shardBytes = b.sys.ens, b.sys.shardBytes
		// The core layer of an ensemble is its shards' models; train one
		// shard alone to time core training with OnEpoch.
		part := shard.Partition(b.in.table, numShards)[0]
		if _, st.train, err = trainCore(ctx, part, twiConfig()); err != nil {
			return nil, nil, err
		}
		st.model, st.modelQs = b.sys.ens.ShardModel(0), rebind(b.in.queries, b.sys.ens.ShardTable(0))
	} else {
		st.model, st.modelQs = b.sys.model, b.in.queries
		if st.ens, st.shardBytes, err = trainEnsemble(ctx, b.in.table, twiConfig()); err != nil {
			return nil, nil, err
		}
	}
	res = &result{Correct: true, Attempted: traced.ph.attempted, Failed: traced.ph.failed}
	setServeStats(res, st0, st1)
	res.set("trace.overhead_frac", 1-traced.qps()/plain.qps(), "fraction")
	if err := measureLayers(ctx, tr, st, res); err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}
