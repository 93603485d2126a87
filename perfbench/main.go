// Command perfbench is the repository's end-to-end benchmark. It drives the
// IAM estimator from outside, through its public entry points, on one of
// three workloads, checks every answer, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload serve-twi --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a traced run, whose spans are written to
// .bench_build/perfbench/. README.md in this directory defines the
// workloads, the metrics and which end-to-end metric each layer metric
// should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Workload sizing. The README records why each value was chosen.
const (
	modelSeed  = 42    // seed of the tables, models and query sets; --seed orders the queries
	rows       = 20000 // rows of every synthetic table
	numQueries = 1024  // distinct queries per workload; q-error covers all of them
	numClients = 2     // closed-loop callers of the serve workloads
	setups     = 2     // set-ups per untraced run; setup_s and heap_mb are their medians
	warmupReqs = 32    // untimed requests per client before the timed phase
	swapEvery  = 25    // client 0 replaces one shard every swapEvery of its requests
	numShards  = 4     // shards of the swap-ensemble-twi ensemble
	batchSize  = 64    // queries per EstimateBatch call on batch-wisdm
	numProbes  = 4     // fixed probe queries re-checked around every shard swap
	replays    = 96    // traced requests replayed through each layer
	maxWindows = 7     // timed-phase windows; latency and throughput are medians over them
	minWindow  = 500   // fewest queries in a window
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// phase counts the requests (or batch calls) of one phase of a run.
type phase struct {
	name                         string
	attempted, succeeded, failed int
}

func (p *phase) add(ok bool) {
	p.attempted++
	if ok {
		p.succeeded++
	} else {
		p.failed++
	}
}

func (p phase) print() {
	fmt.Printf("phase %-7s attempted=%d succeeded=%d failed=%d\n", p.name, p.attempted, p.succeeded, p.failed)
}

func main() {
	workload := flag.String("workload", "", "serve-twi | batch-wisdm | swap-ensemble-twi")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()

	res, err := run(context.Background(), *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(ctx context.Context, workload string, seed int64, d time.Duration, traced bool) (*result, error) {
	if d <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	var w bench
	switch workload {
	case "serve-twi":
		w = &serveBench{seed: seed}
	case "swap-ensemble-twi":
		w = &serveBench{seed: seed, ensemble: true}
	case "batch-wisdm":
		w = &batchBench{seed: seed}
	default:
		return nil, fmt.Errorf("unknown --workload %q (want serve-twi, batch-wisdm or swap-ensemble-twi)", workload)
	}
	fmt.Printf("provenance workload=%s seed=%d seconds=%g trace=%t %s GOMAXPROCS=%d nproc=%d go=%s\n",
		workload, seed, d.Seconds(), traced, w.describe(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if !traced {
		return w.untraced(ctx, d)
	}
	res, tr, err := w.traced(ctx, d)
	if err != nil {
		return nil, err
	}
	return res, tr.dump(workload, seed)
}

// bench is one workload: an untraced run yielding the end-to-end metrics and
// a traced run yielding the per-layer ones.
type bench interface {
	describe() string
	untraced(ctx context.Context, d time.Duration) (*result, error)
	traced(ctx context.Context, d time.Duration) (*result, *tracer, error)
}
