package iam

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"iam/internal/bench"
	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/gmm"
	"iam/internal/join"
	"iam/internal/mscn"
	"iam/internal/naru"
	"iam/internal/nn"
	"iam/internal/query"
	"iam/internal/serve"
	"iam/internal/shard"
	"iam/internal/testutil"
	"iam/internal/uae"
)

// The tests in this file pin three contracts that cross package lines:
// every trainer stops on a cancelled context, every serializer reports a
// failed write, and a failed save leaves the previous file in place.

// tinyCore is an IAM configuration small enough to train in milliseconds.
func tinyCore() core.Config {
	return core.Config{
		GMMThreshold: 50, Components: 4, Hidden: []int{8, 8}, EmbedDim: 4,
		Epochs: 3, BatchSize: 64, NumSamples: 16, GMMSamples: 100, Seed: 1,
	}
}

// cancelAt cancels when epoch e is the given one and lets training go on,
// so the trainer must notice the cancellation itself.
func cancelAt(e, at int, cancel context.CancelFunc) bool {
	if e == at {
		cancel()
	}
	return true
}

// pollCancel is a context that reports cancellation once left Err calls
// have returned nil: a cancel landing between two polls of the trainer.
type pollCancel struct {
	context.Context
	left atomic.Int64
}

func (c *pollCancel) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTrainersStopOnCancel: every trainer that takes a context returns an
// error wrapping context.Canceled once it is cancelled. A trainer with an
// OnEpoch hook is cancelled from epoch 0's hook, so the check at the top of
// a later epoch or batch must fire; the others get a context that is
// already cancelled, except separate training and UAE, whose rows cancel
// inside a phase that a later phase's check would otherwise mask. Every row
// asks for at least two epochs.
func TestTrainersStopOnCancel(t *testing.T) {
	tb := dataset.SynthTWI(400, 1)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 16, Seed: 2})
	schema := join.NewIMDBSchema(dataset.SynthIMDB(200, 1))
	jtrain, err := schema.GenerateWorkload(join.GenJoinConfig{NumQueries: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	naruCfg := naru.Config{Hidden: []int{8, 8}, EmbedDim: 4, Epochs: 3, BatchSize: 64, NumSamples: 16, Seed: 4}
	arCfg := join.ARJoinConfig{
		SampleRows: 300, GMMThreshold: 50, Components: 4, Hidden: []int{8, 8}, EmbedDim: 4,
		Epochs: 3, BatchSize: 64, NumSamples: 16, GMMSamples: 100, Seed: 5,
	}
	rows := []struct {
		name      string
		precancel bool // ctx is cancelled before run; otherwise run cancels it
		run       func(ctx context.Context, cancel context.CancelFunc) error
	}{
		{"core/joint", false, func(ctx context.Context, cancel context.CancelFunc) error {
			cfg := tinyCore()
			cfg.OnEpoch = func(e int, _ *core.Model, _, _ float64) bool { return cancelAt(e, 0, cancel) }
			_, err := core.TrainContext(ctx, tb, cfg)
			return err
		}},
		{"core/separate", false, func(context.Context, context.CancelFunc) error {
			// Separate training runs no hook, and a context cancelled up
			// front would also stop its AR phase. So the cancel lands on the
			// first poll past as many as the AR phase makes: inside the GMM
			// phase, which polls once per batch of each of the two GMM
			// columns.
			cfg := tinyCore()
			cfg.SeparateTraining = true
			ctx := &pollCancel{Context: context.Background()}
			ctx.left.Store(int64(cfg.Epochs * ((tb.NumRows() + cfg.BatchSize - 1) / cfg.BatchSize)))
			_, err := core.TrainContext(ctx, tb, cfg)
			return err
		}},
		{"core/resume", false, func(ctx context.Context, cancel context.CancelFunc) error {
			cfg := tinyCore()
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "ckpt")
			first, stop := context.WithCancel(context.Background())
			defer stop()
			cfg.OnEpoch = func(e int, _ *core.Model, _, _ float64) bool { return cancelAt(e, 0, stop) }
			if _, err := core.TrainContext(first, tb, cfg); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("run that writes the checkpoint: %v", err)
			}
			cfg.Resume = true
			cfg.OnEpoch = func(e int, _ *core.Model, _, _ float64) bool { return cancelAt(e, 1, cancel) }
			_, err := core.TrainContext(ctx, tb, cfg)
			return err
		}},
		{"shard", true, func(ctx context.Context, _ context.CancelFunc) error {
			_, err := shard.TrainContext(ctx, tb, shard.Config{Config: tinyCore(), Shards: 2})
			return err
		}},
		{"nn", false, func(ctx context.Context, cancel context.CancelFunc) error {
			net, err := nn.NewResMADE(nn.Config{Cards: []int{4, 5, 6}, Hidden: []int{8}, EmbedDim: 4, Seed: 6})
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(7))
			data := make([][]int, 200)
			for i := range data {
				data[i] = []int{rng.Intn(4), rng.Intn(5), rng.Intn(6)}
			}
			_, err = net.Fit(data, nn.TrainConfig{
				Epochs: 3, BatchSize: 32, Seed: 8, Ctx: ctx,
				OnEpoch: func(e int, _ float64) bool { return cancelAt(e, 0, cancel) },
			})
			return err
		}},
		{"naru", false, func(ctx context.Context, cancel context.CancelFunc) error {
			cfg := naruCfg
			cfg.OnEpoch = func(e int, _ float64) bool { return cancelAt(e, 0, cancel) }
			_, err := naru.TrainContext(ctx, tb, cfg)
			return err
		}},
		{"uae", false, func(context.Context, context.CancelFunc) error {
			// The query phase polls once per query epoch, so a cancel on
			// the first poll past those lands inside the data phase.
			cfg := uae.Config{Base: naruCfg, QueryEpochs: 2, TrainSamples: 16}
			ctx := &pollCancel{Context: context.Background()}
			ctx.left.Store(int64(cfg.QueryEpochs))
			cfg.Ctx = ctx
			_, err := uae.TrainUAE(tb, train, cfg)
			return err
		}},
		{"uae/queries", true, func(ctx context.Context, _ context.CancelFunc) error {
			_, err := uae.TrainUAEQ(tb, train, uae.Config{Base: naruCfg, QueryEpochs: 2, TrainSamples: 16, Ctx: ctx})
			return err
		}},
		{"mscn", true, func(ctx context.Context, _ context.CancelFunc) error {
			_, err := mscn.NewContext(ctx, tb, train, mscn.Config{Hidden: 8, PoolDim: 4, Samples: 20, Epochs: 2, Seed: 9})
			return err
		}},
		{"join/ARJoin", true, func(ctx context.Context, _ context.CancelFunc) error {
			cfg := arCfg
			cfg.Ctx = ctx
			_, err := join.TrainIAMJoin(schema, cfg)
			return err
		}},
		{"join/QueryTrain", true, func(ctx context.Context, _ context.CancelFunc) error {
			cfg := arCfg
			cfg.Ctx = ctx
			_, err := join.TrainUAEQJoin(schema, jtrain, cfg, 2, 1e-3)
			return err
		}},
		{"join/MSCNJoin", true, func(ctx context.Context, _ context.CancelFunc) error {
			_, err := join.NewMSCNJoin(schema, jtrain, join.MSCNJoinConfig{
				Hidden: 8, PoolDim: 4, Samples: 20, Epochs: 2, BatchSize: 4, Seed: 10, Ctx: ctx,
			})
			return err
		}},
		{"gmm.FitSGD", true, func(ctx context.Context, _ context.CancelFunc) error {
			_, _, err := gmm.FitSGD(ctx, tb.Columns[0].Floats, 4, 2, 64, 0.01, rand.New(rand.NewSource(11)))
			return err
		}},
		{"serve.StartTraining", false, func(ctx context.Context, cancel context.CancelFunc) error {
			m, err := core.Train(tb, tinyCore())
			if err != nil {
				return err
			}
			s, err := serve.New(serve.Config{}, tb, m)
			if err != nil {
				return err
			}
			defer s.Close()
			before := s.Stats().Version
			cfg := tinyCore()
			cfg.OnEpoch = func(e int, _ *core.Model, _, _ float64) bool { return cancelAt(e, 0, cancel) }
			errc, err := s.StartTraining(ctx, cfg, 0)
			if err != nil {
				return err
			}
			// A cancelled retrain is a clean stop (Close cancels training
			// the same way), so errc carries nil. What shows the trainer
			// stopped is that no finished model was swapped in.
			if err := <-errc; err != nil {
				return err
			}
			if v := s.Stats().Version; v != before {
				return fmt.Errorf("serving version %d after a cancelled retrain, want %d", v, before)
			}
			return context.Canceled
		}},
		{"bench", true, func(ctx context.Context, _ context.CancelFunc) error {
			s := bench.NewSuite(bench.Config{Rows: 400, Epochs: 2, Hidden: []int{8, 8}, NumSamples: 16, Components: 4, Seed: 12})
			s.Ctx = ctx
			_, err := s.IAM("twi")
			return err
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if r.precancel {
				cancel()
			}
			if err := r.run(ctx, cancel); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want one wrapping context.Canceled", err)
			}
		})
	}
}

// failAfter is a writer that accepts n bytes and fails every write past them.
type failAfter struct{ n int }

var errWriterFull = errors.New("writer full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	k := w.n
	w.n = 0
	return k, errWriterFull
}

// TestSerializersReportWriteFailure: every serializer whose output is
// persisted returns an error when its writer fails, at any byte offset of
// the output. A dropped error from a final Flush or from the encoder would
// turn a short write into a truncated file that only fails at load time.
func TestSerializersReportWriteFailure(t *testing.T) {
	tb := dataset.SynthTWI(300, 1)
	m, err := core.Train(tb, tinyCore())
	if err != nil {
		t.Fatal(err)
	}
	ens, err := shard.Train(tb, shard.Config{Config: tinyCore(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewResMADE(nn.Config{Cards: []int{4, 5, 6}, Hidden: []int{8}, EmbedDim: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	report := &bench.Report{Title: "t", Header: []string{"estimator", "median", "max"}}
	for i := 0; i < 20; i++ {
		report.Addf(fmt.Sprintf("est%d", i), 1+float64(i)/7, 100+float64(i)/3)
	}
	small := dataset.SynthWISDM(60, 2)
	for _, tc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"core.Model.Save", m.Save},
		{"shard.Ensemble.Save", ens.Save},
		{"nn.ResMADE.Save", net.Save},
		{"bench.Report.WriteCSV", report.WriteCSV},
		{"dataset.WriteCSV", func(w io.Writer) error { return dataset.WriteCSV(small, w) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf); err != nil {
				t.Fatal(err)
			}
			for off := 0; off < buf.Len(); off++ {
				if err := tc.write(&failAfter{n: off}); err == nil {
					t.Fatalf("writer failing at byte %d of %d: no error", off, buf.Len())
				}
			}
		})
	}
}

// TestFailedSaveKeepsOldFile: a save that cannot complete leaves the
// previous file byte for byte. The destination's <path>.tmp sibling is a
// directory, so a write-to-temp-then-rename save fails before it touches
// the destination, while a save that writes the destination directly
// succeeds and the test fails.
func TestFailedSaveKeepsOldFile(t *testing.T) {
	tb := dataset.SynthTWI(300, 1)
	old := []byte("previous contents")
	blocked := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "model")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(path+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	kept := func(t *testing.T, path string) {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, old) {
			t.Fatalf("%s holds %d new bytes, want the previous contents", path, len(got))
		}
	}
	t.Run("core checkpoint", func(t *testing.T) {
		path := blocked(t)
		cfg := tinyCore()
		cfg.CheckpointPath = path
		if _, err := core.Train(tb, cfg); err == nil {
			t.Fatal("training with an unwritable checkpoint succeeded")
		}
		kept(t, path)
	})
	t.Run("serve SavePath", func(t *testing.T) {
		m, err := core.Train(tb, tinyCore())
		if err != nil {
			t.Fatal(err)
		}
		path := blocked(t)
		s, err := serve.New(serve.Config{SavePath: path}, tb, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err == nil {
			t.Fatal("Close flushed the model to an unwritable SavePath without error")
		}
		kept(t, path)
	})
}
