// Command iamserve runs the IAM estimation server: an HTTP/JSON service
// that answers selectivity queries through the dynamic-batching, admission-
// controlled, hot-swappable serving layer (internal/serve).
//
//	iamserve -dataset twi -rows 20000 -load twi.model -addr :8080
//	iamserve -dataset twi -rows 20000 -epochs 8 -checkpoint twi.ckpt -addr :8080
//
// Endpoints:
//
//	POST /estimate  {"query": "latitude <= 40", "deadline_ms": 50}
//	GET  /healthz   200 while serving, 503 while draining
//	GET  /stats     counters + per-tier cascade health as JSON
//
// With -load the model is read from disk and serving starts immediately;
// otherwise the model is trained first (resumable with -checkpoint/-resume).
// -retrain N starts a background retrain for N epochs after serving starts,
// hot-swapping a snapshot into the serving path at every epoch boundary —
// clients see version numbers move in /stats and per-response provenance.
// SIGINT/SIGTERM drains: in-flight requests are answered, new ones get 503,
// background training is checkpointed, and -save flushes the served model.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/serve"
	"iam/internal/shard"
)

func main() {
	var (
		addr   = flag.String("addr", ":8080", "listen address")
		dsName = flag.String("dataset", "twi", "dataset: wisdm | twi | higgs")
		csvIn  = flag.String("csv", "", "load the table from a CSV file instead of synthesizing")
		rows   = flag.Int("rows", 20000, "synthetic rows")
		seed   = flag.Int64("seed", 42, "generation seed")

		loadFrom = flag.String("load", "", "serve a previously saved model instead of training")
		saveTo   = flag.String("save", "", "flush the served model here on shutdown (atomic write)")
		epochs   = flag.Int("epochs", 8, "training epochs when no -load is given")
		ckpt     = flag.String("checkpoint", "", "epoch-granular training checkpoint file")
		resume   = flag.Bool("resume", false, "resume training from -checkpoint if present")
		retrain  = flag.Int("retrain", 0, "retrain for this many epochs in the background, hot-swapping every epoch")

		maxBatch    = flag.Int("maxbatch", 32, "max queries per dispatched batch")
		batchWindow = flag.Duration("batchwindow", 2*time.Millisecond, "how long the batcher waits for stragglers")
		queueDepth  = flag.Int("queue", 256, "admission queue depth (full queue → 429)")
		inFlight    = flag.Int("inflight", 2, "max concurrently executing batches")
		tierTimeout = flag.Duration("tiertimeout", 2*time.Second, "guard cascade per-tier timeout")
		shedLat     = flag.Duration("shedlatency", 0, "EWMA batch latency that triggers shed mode (0 disables)")
		deadline    = flag.Duration("deadline", 0, "default per-request deadline when the client sends none (0 disables)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var t *dataset.Table
	if *csvIn != "" {
		f, err := os.Open(*csvIn)
		die(err)
		t, err = dataset.ReadCSV(*csvIn, f, dataset.CSVOptions{CategoricalMaxDistinct: 64})
		die(err)
		die(f.Close())
	} else {
		t = makeDataset(*dsName, *rows, *seed)
	}

	m, ens := obtainModel(ctx, t, *loadFrom, *epochs, *seed, *ckpt, *resume)

	cfg := serve.Config{
		MaxBatch:        *maxBatch,
		BatchWindow:     *batchWindow,
		QueueDepth:      *queueDepth,
		MaxInFlight:     *inFlight,
		TierTimeout:     *tierTimeout,
		ShedLatency:     *shedLat,
		DefaultDeadline: *deadline,
		Seed:            *seed,
		SavePath:        *saveTo,
	}
	var s *serve.Server
	var err error
	if ens != nil {
		s, err = serve.NewEnsemble(cfg, t, ens)
	} else {
		s, err = serve.New(cfg, t, m)
	}
	die(err)

	var trainErr <-chan error
	if *retrain > 0 {
		cfg := trainConfig(*retrain, *seed+1, *ckpt, *resume)
		trainErr, err = s.StartTraining(ctx, cfg, 1)
		die(err)
		fmt.Fprintf(os.Stderr, "background retrain started: %d epochs, swapping every epoch\n", *retrain)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "iamserve: serving %s (%d rows) on %s\n", t.Name, t.NumRows(), *addr)

	select {
	case <-ctx.Done():
	case err := <-httpErr:
		die(err)
	}

	fmt.Fprintln(os.Stderr, "iamserve: draining...")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "iamserve: http shutdown:", err)
	}
	die(s.Close())
	if trainErr != nil {
		select {
		case err := <-trainErr:
			if err != nil {
				fmt.Fprintln(os.Stderr, "iamserve: background retrain:", err)
			}
		default:
		}
	}
	fmt.Fprintln(os.Stderr, "iamserve: shutdown complete")
}

// obtainModel returns exactly one of (model, ensemble): -load auto-detects
// the file format (ensembles carry the shard.Magic prefix), training always
// produces a plain model.
func obtainModel(ctx context.Context, t *dataset.Table, loadFrom string, epochs int, seed int64, ckpt string, resume bool) (*core.Model, *shard.Ensemble) {
	if loadFrom != "" {
		f, err := os.Open(loadFrom)
		die(err)
		defer func() { _ = f.Close() }() // read-only descriptor
		br := bufio.NewReader(f)
		head, err := br.Peek(len(shard.Magic))
		if err != nil && !errors.Is(err, io.EOF) {
			die(err)
		}
		if shard.IsEnsemble(head) {
			e, err := shard.Load(br, t)
			die(err)
			fmt.Fprintf(os.Stderr, "iamserve: loaded %d-shard ensemble from %s\n", e.NumShards(), loadFrom)
			return nil, e
		}
		m, err := core.Load(br, t)
		die(err)
		fmt.Fprintf(os.Stderr, "iamserve: loaded model from %s\n", loadFrom)
		return m, nil
	}
	fmt.Fprintf(os.Stderr, "iamserve: training on %s (%d rows, %d epochs)...\n", t.Name, t.NumRows(), epochs)
	m, err := core.TrainContext(ctx, t, trainConfig(epochs, seed, ckpt, resume))
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "iamserve: interrupted before serving started")
		os.Exit(130)
	}
	die(err)
	return m, nil
}

func trainConfig(epochs int, seed int64, ckpt string, resume bool) core.Config {
	return core.Config{
		Epochs: epochs, Seed: seed, Hidden: []int{64, 32, 32, 64},
		CheckpointPath: ckpt, Resume: resume,
	}
}

func makeDataset(name string, rows int, seed int64) *dataset.Table {
	switch name {
	case "wisdm":
		return dataset.SynthWISDM(rows, seed)
	case "twi":
		return dataset.SynthTWI(rows, seed)
	case "higgs":
		return dataset.SynthHIGGS(rows, seed)
	}
	die(fmt.Errorf("unknown dataset %q (want wisdm, twi or higgs)", name))
	return nil
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "iamserve:", err)
		os.Exit(1)
	}
}
