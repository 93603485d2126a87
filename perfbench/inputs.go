package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/serve"
	"iam/internal/shard"
)

// inputs is the fixed part of what a workload feeds the system: the table,
// the query texts, the POST /estimate bodies carrying them, the queries as
// query.Parse reads the texts back, and the query.Exec truth. The seed only
// decides the order in which they are sent.
type inputs struct {
	table     *dataset.Table
	generated []*query.Query
	queries   []*query.Query // parsed from texts; what every workload sends
	texts     []string
	bodies    [][]byte
	truth     []float64
}

// makeInputs generates the workload's numQueries queries over t and applies
// the first half of the round-trip gate: every text must parse back to the
// generated ranges.
func makeInputs(t *dataset.Table) (*inputs, error) {
	w, err := query.Generate(t, query.GenConfig{NumQueries: numQueries, Seed: modelSeed + 1, SkipExec: true})
	if err != nil {
		return nil, fmt.Errorf("generating queries: %w", err)
	}
	in := &inputs{table: t, generated: w.Queries}
	for i, q := range w.Queries {
		text := q.String()
		p, err := query.Parse(t, text)
		if err != nil {
			return nil, fmt.Errorf("gate: query %d %q does not parse: %w", i, text, err)
		}
		if !sameRanges(q, p) {
			return nil, fmt.Errorf("gate: query %d %q parses to other ranges than generated", i, text)
		}
		body, err := json.Marshal(serve.EstimateRequest{Query: text})
		if err != nil {
			return nil, fmt.Errorf("encoding request %d: %w", i, err)
		}
		in.texts = append(in.texts, text)
		in.bodies = append(in.bodies, body)
		in.queries = append(in.queries, p)
		in.truth = append(in.truth, query.Exec(q))
	}
	return in, nil
}

func sameRanges(a, b *query.Query) bool {
	if len(a.Ranges) != len(b.Ranges) {
		return false
	}
	for i, ra := range a.Ranges {
		rb := b.Ranges[i]
		if (ra == nil) != (rb == nil) {
			return false
		}
		if ra != nil && (math.Float64bits(ra.Lo) != math.Float64bits(rb.Lo) ||
			math.Float64bits(ra.Hi) != math.Float64bits(rb.Hi) ||
			ra.LoInc != rb.LoInc || ra.HiInc != rb.HiInc) {
			return false
		}
	}
	return true
}

// checkSeeds is the second half of the round-trip gate: a parsed query must
// draw the same sampling stream as the query it was generated from.
func (in *inputs) checkSeeds(m seeded) error {
	for i, q := range in.generated {
		if m.QuerySeed(q) != m.QuerySeed(in.queries[i]) {
			return fmt.Errorf("gate: query %d %q: parsed QuerySeed differs from generated", i, in.texts[i])
		}
	}
	return nil
}

// rebind returns qs bound to t, a shard's sub-table with the same columns.
func rebind(qs []*query.Query, t *dataset.Table) []*query.Query {
	out := make([]*query.Query, len(qs))
	for i, q := range qs {
		out[i] = &query.Query{Table: t, Ranges: q.Ranges}
	}
	return out
}

// seeded is the estimate surface shared by *core.Model and *shard.Ensemble.
type seeded interface {
	QuerySeed(q *query.Query) int64
	EstimateBatchSeeded(qs []*query.Query, qseeds []int64) ([]float64, error)
	SizeBytes() int
}

// estimateB1 is the in-process answer the server must reproduce bit for bit:
// EstimateBatchSeeded([q], [QuerySeed(q)]).
func estimateB1(m seeded, q *query.Query) (float64, error) {
	res, err := m.EstimateBatchSeeded([]*query.Query{q}, []int64{m.QuerySeed(q)})
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// referenceB1 computes estimateB1 for every query, split over numClients
// goroutines.
func referenceB1(m seeded, qs []*query.Query) ([]float64, error) {
	out := make([]float64, len(qs))
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for c := 0; c < numClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(qs); i += numClients {
				v, err := estimateB1(m, qs[i])
				if err != nil {
					errs[c] = fmt.Errorf("reference estimate of query %d: %w", i, err)
					return
				}
				out[i] = v
			}
		}(c)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// Model configurations. twiConfig is iamserve's trainConfig.
func twiConfig() core.Config {
	return core.Config{Epochs: 8, Seed: modelSeed, Hidden: []int{64, 32, 32, 64}}
}

func wisdmConfig() core.Config {
	c := twiConfig()
	// One estimate worker: with two on a 2-vCPU host, the slower worker sets
	// each call's time and the same batch took 510 to 850 ms from call to
	// call, which spread throughput between runs beyond its bound.
	c.Workers = 1
	c.MassCacheSize = 256
	c.TrainWorkers = 2
	return c
}

func ensembleConfig(c core.Config) shard.Config {
	return shard.Config{Config: c, Shards: numShards, TrainParallel: 2, EarlyStopRelErr: 0.2}
}

// serveConfig is iamserve's flag defaults.
func serveConfig() serve.Config {
	return serve.Config{
		MaxBatch: 32, BatchWindow: 2 * time.Millisecond, QueueDepth: 256,
		MaxInFlight: 2, TierTimeout: 2 * time.Second, Seed: modelSeed,
	}
}

// trainStats is what OnEpoch reports about one core.TrainContext.
type trainStats struct {
	seconds, rows, epochs float64
	arNLL, gmmNLL         float64
}

func trainCore(ctx context.Context, t *dataset.Table, cfg core.Config) (*core.Model, trainStats, error) {
	st := trainStats{rows: float64(t.NumRows())}
	start := time.Now()
	cfg.OnEpoch = func(_ int, _ *core.Model, gmmNLL, arNLL float64) bool {
		st.epochs++
		st.seconds = time.Since(start).Seconds()
		st.gmmNLL, st.arNLL = gmmNLL, arNLL
		return true
	}
	m, err := core.TrainContext(ctx, t, cfg)
	if err != nil {
		return nil, st, fmt.Errorf("training: %w", err)
	}
	return m, st, nil
}

// Statistics.

// quantile is the nearest-rank p-quantile of sorted.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// reqTime is one request of a timed phase: when it completed, in seconds
// since the phase started, and its latency in ms.
type reqTime struct {
	done, lat float64
	ok        bool
}

func newReqTime(phaseStart, sent time.Time, ok bool) reqTime {
	now := time.Now()
	return reqTime{done: now.Sub(phaseStart).Seconds(), lat: float64(now.Sub(sent).Nanoseconds()) / 1e6, ok: ok}
}

// setTimed reports latency and throughput of a timed phase. The phase is cut
// into up to maxWindows runs of consecutive requests in completion order,
// each carrying at least minWindow queries, and each metric is the median of
// its window values, so a stall of the shared host during a few windows does
// not move it.
func setTimed(r *result, l *loadResult) error {
	if len(l.reqs) == 0 {
		return fmt.Errorf("timed phase made no requests")
	}
	windows := max(1, min(maxWindows, int(float64(len(l.reqs))*l.perReq)/minWindow))
	reqs := append([]reqTime(nil), l.reqs...)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].done < reqs[j].done })
	var p50, p99, qps []float64
	prev := 0.0
	for w := 0; w < windows; w++ {
		part := reqs[w*len(reqs)/windows : (w+1)*len(reqs)/windows]
		lats := make([]float64, len(part))
		ok := 0
		for i, q := range part {
			lats[i] = q.lat
			if q.ok {
				ok++
			}
		}
		sort.Float64s(lats)
		p50 = append(p50, quantile(lats, 0.50))
		p99 = append(p99, quantile(lats, 0.99))
		end := part[len(part)-1].done
		qps = append(qps, float64(ok)*l.perReq/(end-prev))
		prev = end
	}
	fmt.Printf("windows latency_p50_ms=%.4g latency_p99_ms=%.4g throughput_qps=%.4g\n", p50, p99, qps)
	r.set("latency_p50_ms", median(p50), "ms")
	r.set("latency_p99_ms", median(p99), "ms")
	r.set("throughput_qps", median(qps), "queries/s")
	return nil
}

func setQError(r *result, est, truth []float64) {
	errs := make([]float64, len(est))
	for i := range est {
		errs[i] = estimator.QError(truth[i], est[i], 1/float64(rows))
	}
	s := estimator.Summarize(errs)
	r.set("qerror_p50", s.Median, "ratio")
	r.set("qerror_p95", s.P95, "ratio")
	r.set("qerror_p99", s.P99, "ratio")
}

// liveHeap is HeapAlloc after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func validSel(v float64) bool { return v >= 0 && v <= 1 }

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
