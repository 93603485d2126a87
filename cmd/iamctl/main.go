// Command iamctl trains and queries IAM selectivity estimators on the
// synthetic evaluation datasets from the command line.
//
// Subcommands:
//
//	iamctl train    -dataset twi -rows 20000 -epochs 8 -save twi.model
//	iamctl stats    -dataset wisdm -rows 20000
//	iamctl estimate -dataset twi -rows 20000 -query "latitude <= 40 AND longitude >= -100"
//	iamctl eval     -dataset higgs -rows 20000 -queries 200 -estimators IAM,Neurocard,Postgres
//	iamctl agg      -dataset twi -rows 20000 -query "latitude >= 40" -col longitude
//	iamctl join     -rows 800 -queries 60
//
// All data is generated deterministically from -seed, so results are
// reproducible.
//
// Training is fault tolerant: Ctrl-C (SIGINT/SIGTERM) stops the run at the
// next mini-batch; with -checkpoint set, the last completed epoch survives
// on disk and -resume continues from it. -guard wraps the IAM estimator in
// a fallback cascade (IAM → sampling → Postgres histogram) so a failing
// model degrades instead of erroring out.
//
// -cpuprofile, -memprofile and -blockprofile write pprof profiles covering
// the whole run (training and estimation); see README "Profiling" for the
// workflow.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"iam/internal/atomicfile"
	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/guard"
	"iam/internal/join"
	"iam/internal/naru"
	"iam/internal/pghist"
	"iam/internal/query"
	"iam/internal/sampling"
	"iam/internal/shard"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		dsName  = fs.String("dataset", "twi", "dataset: wisdm | twi | higgs")
		csvIn   = fs.String("csv", "", "load the table from a CSV file instead of synthesizing")
		rows    = fs.Int("rows", 20000, "synthetic rows")
		seed    = fs.Int64("seed", 42, "generation seed")
		qstr    = fs.String("query", "", "SQL-ish conjunction, e.g. \"latitude <= 40\"")
		col     = fs.String("col", "", "aggregation target column (agg)")
		nq      = fs.Int("queries", 200, "workload size (eval)")
		ests    = fs.String("estimators", "IAM,Neurocard,Postgres", "comma-separated roster (eval)")
		epochs  = fs.Int("epochs", 8, "training epochs")
		trainWk = fs.Int("trainworkers", 0, "data-parallel training workers (0/1 serial, -1 = GOMAXPROCS); trajectory is identical for every setting")
		saveTo  = fs.String("save", "", "save the trained IAM model to this file (atomic write)")
		loadFr  = fs.String("load", "", "load a previously saved IAM model instead of training")
		ckpt    = fs.String("checkpoint", "", "write an epoch-granular training checkpoint to this file")
		resume  = fs.Bool("resume", false, "resume IAM training from -checkpoint if it exists")
		guardQ  = fs.Bool("guard", false, "wrap IAM in the fallback cascade IAM → sampling → Postgres")

		shards   = fs.Int("shards", 1, "row shards: train one IAM per shard and merge estimates row-weighted (1 = plain model)")
		shardWk  = fs.Int("shardworkers", -1, "concurrently training shards (0/1 sequential, -1 = GOMAXPROCS); trained parameters are identical for every setting")
		earlyRel = fs.Float64("earlystop", 0, "variance-based early termination: skip remaining shards once a query's CI is tighter than this relative error (0 = off, answers exhaustive)")

		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file before exiting")
		blockProf = fs.String("blockprofile", "", "write a goroutine-blocking profile to this file before exiting")
	)
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	stopProfiles := startProfiles(*cpuProf, *blockProf)
	defer stopProfiles(*memProf)

	// Ctrl-C cancels training between mini-batches; with -checkpoint the
	// last completed epoch is flushed before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := trainOpts{
		epochs: *epochs, seed: *seed, trainWorkers: *trainWk,
		loadFrom: *loadFr, saveTo: *saveTo,
		checkpoint: *ckpt, resume: *resume,
		shards: *shards, shardWorkers: *shardWk, earlyStopRelErr: *earlyRel,
	}

	var t *dataset.Table
	if cmd != "join" {
		if *csvIn != "" {
			f, err := os.Open(*csvIn)
			die(err)
			t, err = dataset.ReadCSV(*csvIn, f, dataset.CSVOptions{CategoricalMaxDistinct: 64})
			die(err)
			die(f.Close())
		} else {
			t = makeDataset(*dsName, *rows, *seed)
		}
	}
	switch cmd {
	case "train":
		if opts.saveTo == "" && opts.checkpoint == "" {
			die(fmt.Errorf("train requires -save and/or -checkpoint (otherwise the model is discarded)"))
		}
		m := obtainModel(ctx, t, opts)
		fmt.Printf("trained %s on %s: %d epochs, model size %d bytes\n",
			m.Name(), t.Name, *epochs, m.SizeBytes())
	case "stats":
		st := dataset.Describe(t)
		fmt.Printf("dataset   %s\nrows      %d\ncols      %d categorical, %d continuous\n",
			st.Name, st.Rows, st.ColsCat, st.ColsCon)
		fmt.Printf("joint     10^%.1f\nNCIE      %.3f (smaller = stronger correlation)\n",
			st.JointLog10, st.NCIE)
		fmt.Printf("skewness  mean %.2f, max %.2f\n", st.FisherSkewMean, st.FisherSkewMax)
		for _, c := range t.Columns {
			fmt.Printf("  column %-16s %-11s distinct=%d\n", c.Name, c.Kind, c.DistinctCount())
		}
	case "estimate":
		q := parseOrDie(t, *qstr)
		e := obtainEstimator(ctx, t, opts, *guardQ)
		start := time.Now()
		est, err := e.Estimate(q)
		die(err)
		lat := time.Since(start)
		truth := query.Exec(q)
		fmt.Printf("query      %s\n", q)
		fmt.Printf("estimated  %.6g   (%.2fms)\n", est, float64(lat.Microseconds())/1000)
		fmt.Printf("actual     %.6g\n", truth)
		fmt.Printf("q-error    %.3f\n", estimator.QError(truth, est, 1/float64(t.NumRows())))
	case "agg":
		if *col == "" {
			die(fmt.Errorf("agg requires -col"))
		}
		q := parseOrDie(t, *qstr)
		if opts.shards > 1 {
			die(fmt.Errorf("agg needs the single-model AVG/SUM path; drop -shards"))
		}
		m := obtainIAM(ctx, t, opts)
		avg, err := m.EstimateAvg(q, *col)
		die(err)
		sum, err := m.EstimateSum(q, *col)
		die(err)
		fmt.Printf("query        %s\n", q)
		fmt.Printf("AVG(%s) ≈ %.6g\n", *col, avg)
		fmt.Printf("SUM(%s) ≈ %.6g\n", *col, sum)
	case "eval":
		w, err := query.Generate(t, query.GenConfig{NumQueries: *nq, Seed: *seed + 1})
		die(err)
		for _, label := range strings.Split(*ests, ",") {
			label = strings.TrimSpace(label)
			e := buildEstimator(ctx, label, t, opts, *guardQ)
			ev, err := estimator.Evaluate(e, w, t.NumRows())
			die(err)
			fmt.Printf("%-10s %s  (%.2fms/query)\n", label, ev.Summary,
				float64(ev.AvgLatency.Microseconds())/1000)
			if g, ok := e.(*guard.Guarded); ok {
				fmt.Fprintf(os.Stderr, "%s\n", g)
			}
		}
	case "join":
		runJoin(*rows, *seed, *nq, *epochs)
	default:
		usage()
		os.Exit(2)
	}
}

// runJoin trains the IAM and Postgres-style join estimators on the
// synthetic IMDB star schema and evaluates a JOB-light-style workload.
func runJoin(titles int, seed int64, nq, epochs int) {
	if titles > 5000 {
		titles = 5000 // the -rows flag doubles as the title count here
	}
	schema := join.NewIMDBSchema(dataset.SynthIMDB(titles, seed))
	fmt.Printf("star schema: title=%d movie_info=%d cast_info=%d |J|=%.0f\n",
		schema.Root.NumRows(), schema.Children[0].Table.NumRows(),
		schema.Children[1].Table.NumRows(), schema.FullJoinSize())
	w, err := schema.GenerateWorkload(join.GenJoinConfig{NumQueries: nq, Seed: seed + 1})
	die(err)
	fmt.Fprintf(os.Stderr, "training IAM join model...\n")
	iamJoin, err := join.TrainIAMJoin(schema, join.ARJoinConfig{
		Epochs: epochs, Hidden: []int{64, 32, 32, 64}, Seed: seed,
	})
	die(err)
	pgJoin, err := join.NewPGJoin(schema, pghist.Config{})
	die(err)
	for _, e := range []join.CardEstimator{iamJoin, pgJoin} {
		errs := make([]float64, len(w.Queries))
		start := time.Now()
		for i, jq := range w.Queries {
			est, err := e.EstimateCard(jq)
			die(err)
			errs[i] = estimator.QError(w.Cards[i], est, 1)
		}
		lat := time.Since(start) / time.Duration(len(w.Queries))
		fmt.Printf("%-10s %s  (%.2fms/query)\n", e.Name(), estimator.Summarize(errs),
			float64(lat.Microseconds())/1000)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: iamctl <train|stats|estimate|eval|agg|join> [flags]")
	fmt.Fprintln(os.Stderr, "run 'iamctl <cmd> -h' for the flags of each subcommand")
}

// startProfiles arms the requested pprof collectors and returns the function
// that flushes them; main defers it so every subcommand (train, estimate,
// eval, ...) is covered without per-command plumbing. Profiles are lost on
// the die()/os.Exit error paths — profiling a failing run is not a workflow
// we support. See README "Profiling" for usage.
func startProfiles(cpu, block string) func(mem string) {
	var cpuFile *os.File
	if cpu != "" {
		// pprof streams into the file for the whole run; profiles are scratch
		// diagnostics, so they skip the atomic write.
		f, err := os.Create(cpu)
		die(err)
		die(pprof.StartCPUProfile(f))
		cpuFile = f
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func(mem string) {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			die(cpuFile.Close())
		}
		if block != "" {
			// Profiles are scratch diagnostics, not persisted state.
			f, err := os.Create(block)
			die(err)
			die(pprof.Lookup("block").WriteTo(f, 0))
			die(f.Close())
		}
		if mem != "" {
			// Profiles are scratch diagnostics, not persisted state.
			f, err := os.Create(mem)
			die(err)
			runtime.GC() // heap profile of live objects, not transient garbage
			die(pprof.WriteHeapProfile(f))
			die(f.Close())
		}
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "iamctl:", err)
		os.Exit(1)
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
	die(fmt.Errorf("unknown dataset %q", name))
	return nil
}

func parseOrDie(t *dataset.Table, s string) *query.Query {
	q, err := query.Parse(t, s)
	die(err)
	return q
}

type trainOpts struct {
	epochs       int
	seed         int64
	trainWorkers int
	loadFrom     string
	saveTo       string
	checkpoint   string
	resume       bool

	shards          int
	shardWorkers    int
	earlyStopRelErr float64
}

// trainedModel is what train/estimate/eval need from either a plain
// core.Model or a sharded shard.Ensemble.
type trainedModel interface {
	estimator.Estimator
	SizeBytes() int
	Save(w io.Writer) error
}

// obtainModel loads a saved model when -load is given (plain or ensemble,
// auto-detected from the file's magic prefix), otherwise trains — sharded
// when -shards > 1 — and atomically saves the result if asked.
func obtainModel(ctx context.Context, t *dataset.Table, o trainOpts) trainedModel {
	if o.loadFrom != "" {
		return loadModel(o.loadFrom, t)
	}
	var m trainedModel
	if o.shards > 1 {
		m = trainEnsemble(ctx, t, o)
	} else {
		m = trainIAM(ctx, t, o)
	}
	if o.saveTo != "" {
		die(atomicfile.WriteFile(o.saveTo, func(w io.Writer) error {
			return m.Save(w)
		}))
		fmt.Fprintf(os.Stderr, "saved model to %s\n", o.saveTo)
	}
	return m
}

// loadModel opens path and dispatches on the file's leading bytes: ensemble
// snapshots carry the shard.Magic prefix, plain models are bare gob streams.
func loadModel(path string, t *dataset.Table) trainedModel {
	f, err := os.Open(path)
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
		fmt.Fprintf(os.Stderr, "loaded %d-shard ensemble from %s\n", e.NumShards(), path)
		return e
	}
	m, err := core.Load(br, t)
	die(err)
	fmt.Fprintf(os.Stderr, "loaded model from %s\n", path)
	return m
}

// obtainIAM is obtainModel restricted to the plain single-model path, for
// subcommands (agg) that need core.Model-only APIs.
func obtainIAM(ctx context.Context, t *dataset.Table, o trainOpts) *core.Model {
	o.shards = 1
	m, ok := obtainModel(ctx, t, o).(*core.Model)
	if !ok {
		die(fmt.Errorf("%s holds a sharded ensemble; this subcommand needs a plain model", o.loadFrom))
	}
	return m
}

// obtainEstimator returns the trained model (plain or ensemble), optionally
// wrapped in the guard cascade with a sampling estimator and a Postgres
// histogram as fallbacks.
func obtainEstimator(ctx context.Context, t *dataset.Table, o trainOpts, guarded bool) estimator.Estimator {
	m := obtainModel(ctx, t, o)
	if !guarded {
		return m
	}
	return guardedCascade(t, m, o.seed)
}

func trainEnsemble(ctx context.Context, t *dataset.Table, o trainOpts) *shard.Ensemble {
	cfg := shard.Config{
		Shards:          o.shards,
		TrainParallel:   o.shardWorkers,
		EarlyStopRelErr: o.earlyStopRelErr,
	}
	cfg.Config = core.Config{
		Epochs: o.epochs, Seed: o.seed, Hidden: []int{64, 32, 32, 64},
		TrainWorkers:   o.trainWorkers,
		CheckpointPath: o.checkpoint, Resume: o.resume,
	}
	fmt.Fprintf(os.Stderr, "training %d-shard IAM ensemble on %s (%d rows, %d epochs)...\n",
		o.shards, t.Name, t.NumRows(), o.epochs)
	e, err := shard.TrainContext(ctx, t, cfg)
	if errors.Is(err, context.Canceled) {
		if o.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "interrupted; per-shard checkpoints at %s.shard* (rerun with -resume)\n", o.checkpoint)
		} else {
			fmt.Fprintln(os.Stderr, "interrupted")
		}
		os.Exit(130)
	}
	die(err)
	return e
}

// guardedCascade builds the production-shaped fallback chain: the learned
// model first, a uniform sample if it fails, and the histogram — which
// cannot realistically fail — as the terminal tier.
func guardedCascade(t *dataset.Table, m estimator.Estimator, seed int64) estimator.Estimator {
	samp, err := sampling.New(t, 2000, seed+5)
	die(err)
	hist, err := pghist.New(t, pghist.Config{})
	die(err)
	g, err := guard.New(guard.Config{Timeout: 2 * time.Second}, m, samp, hist)
	die(err)
	return g
}

func trainIAM(ctx context.Context, t *dataset.Table, o trainOpts) *core.Model {
	if o.resume && o.checkpoint != "" {
		if _, err := os.Stat(o.checkpoint); err == nil {
			fmt.Fprintf(os.Stderr, "resuming IAM training from %s\n", o.checkpoint)
		}
	}
	fmt.Fprintf(os.Stderr, "training IAM on %s (%d rows, %d epochs)...\n", t.Name, t.NumRows(), o.epochs)
	m, err := core.TrainContext(ctx, t, core.Config{
		Epochs: o.epochs, Seed: o.seed, Hidden: []int{64, 32, 32, 64},
		TrainWorkers:   o.trainWorkers,
		CheckpointPath: o.checkpoint, Resume: o.resume,
	})
	if errors.Is(err, context.Canceled) {
		if o.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "interrupted; last completed epoch checkpointed at %s (rerun with -resume)\n", o.checkpoint)
		} else {
			fmt.Fprintln(os.Stderr, "interrupted")
		}
		os.Exit(130)
	}
	die(err)
	return m
}

func buildEstimator(ctx context.Context, label string, t *dataset.Table, o trainOpts, guarded bool) estimator.Estimator {
	switch label {
	case "IAM":
		return obtainEstimator(ctx, t, o, guarded)
	case "Neurocard":
		fmt.Fprintf(os.Stderr, "training Neurocard...\n")
		m, err := naru.TrainContext(ctx, t, naru.Config{Epochs: o.epochs, Seed: o.seed, Hidden: []int{64, 32, 32, 64}})
		die(err)
		return m
	case "Postgres":
		e, err := pghist.New(t, pghist.Config{})
		die(err)
		return e
	}
	die(fmt.Errorf("unknown estimator %q (iamctl supports IAM, Neurocard, Postgres; use benchrunner for the full roster)", label))
	return nil
}
