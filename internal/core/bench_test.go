package core

import (
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
	"iam/internal/testutil"
)

func benchModel(b *testing.B) (*Model, *dataset.Table, *query.Workload) {
	b.Helper()
	rows, epochs := 5000, 4
	if testing.Short() {
		rows, epochs = 2000, 2 // CI bench job scale: same shape, faster setup
	}
	tb := dataset.SynthTWI(rows, 1)
	m, err := Train(tb, Config{
		Epochs: epochs, Hidden: []int{64, 32, 32, 64}, NumSamples: 500, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	w := testutil.Workload(b, tb, query.GenConfig{NumQueries: 64, Seed: 3, SkipExec: true})
	return m, tb, w
}

func BenchmarkIAMTrainTWI(b *testing.B) {
	tb := dataset.SynthTWI(5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Train(tb, Config{
			Epochs: 4, Hidden: []int{64, 32, 32, 64}, NumSamples: 500, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIAMEstimate(b *testing.B) {
	m, _, w := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Estimate(w.Queries[i%len(w.Queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateBatch is the headline serving benchmark: one 64-query
// batch per iteration in the serving configuration (worker pool warmed by a
// discarded first batch). workers=1 is the committed
// single-threaded baseline; workers=max resolves Workers=-1 to GOMAXPROCS.
// `make bench-json` records both entries in BENCH_estimate.json together
// with their throughput ratio.
func BenchmarkEstimateBatch(b *testing.B) {
	m, _, w := benchModel(b)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", -1}} {
		b.Run(bc.name, func(b *testing.B) {
			m.cfg.Workers = bc.workers
			if _, err := m.EstimateBatch(w.Queries); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.EstimateBatch(w.Queries); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(w.Queries)*b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkTrainJoint is the headline training benchmark: one full epoch of
// the data-parallel joint inner loop (GMM SGD steps, sharded AR
// forward/backward, fixed-order reduce, AdamStep) per iteration, on a model
// whose setup (encoder/GMM init, marginal calibration) is done once outside
// the timer. workers=1 is the committed single-threaded baseline; workers=max
// resolves TrainWorkers=-1 to GOMAXPROCS. The trajectory is bit-identical in
// both settings by construction, so the comparison is pure wall-clock.
// `make bench-json` records both entries in BENCH_train.json together with
// their throughput ratio.
func BenchmarkTrainJoint(b *testing.B) {
	rows := 5000
	if testing.Short() {
		rows = 2000
	}
	tb := dataset.SynthTWI(rows, 1)
	m, err := Train(tb, Config{
		Epochs: 1, Hidden: []int{64, 32, 32, 64}, NumSamples: 500, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := tb.NumRows()
	idx := epochRNG(m.cfg.Seed, 0).Perm(n)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=max", -1}} {
		b.Run(bc.name, func(b *testing.B) {
			m.cfg.TrainWorkers = bc.workers
			eng := m.newTrainEngine()
			m.mu.Lock()
			defer m.mu.Unlock()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for start := 0; start < n; start += m.cfg.BatchSize {
					end := start + m.cfg.BatchSize
					if end > n {
						end = n
					}
					if _, _, _, err := eng.runBatch(0, start, idx[start:end], 1); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

func BenchmarkIAMEstimateBatch64(b *testing.B) {
	m, _, w := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.EstimateBatch(w.Queries); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "queries/s")
}
