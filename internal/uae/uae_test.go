package uae

import (
	"testing"

	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/naru"
	"iam/internal/query"
	"iam/internal/testutil"
)

func baseCfg() naru.Config {
	return naru.Config{
		MaxSubColumn: 128,
		Hidden:       []int{32, 32},
		EmbedDim:     16,
		Epochs:       5,
		BatchSize:    128,
		NumSamples:   400,
		Seed:         1,
	}
}

// skewedTable builds a table where value frequency is highly non-uniform
// across the domain, so an untrained AR model (whose prior is roughly
// uniform over ordinal codes) is badly biased and query-driven training has
// real signal to learn.
func skewedTable(n int, seed int64) *dataset.Table {
	tb := dataset.SynthHIGGS(n, seed) // heavy lognormal right-skew
	return &dataset.Table{Name: "skew", Columns: tb.Columns[:2]}
}

func TestUAEQLearnsFromQueriesOnly(t *testing.T) {
	tb := skewedTable(4000, 2)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 300, Seed: 3})
	cfg := Config{Base: baseCfg(), QueryEpochs: 6, QueryBatch: 16, QueryLR: 2e-3}

	m, err := TrainUAEQ(tb, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the same architecture with NO training at all.
	untrainedCfg := baseCfg()
	untrainedCfg.Epochs = -1
	untrained, err := naru.Train(tb, untrainedCfg)
	if err != nil {
		t.Fatal(err)
	}

	test := testutil.Workload(t, tb, query.GenConfig{NumQueries: 60, Seed: 4})
	evQ, err := estimator.Evaluate(m, test, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	evU, err := estimator.Evaluate(untrained, test, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if evQ.Summary.Median >= evU.Summary.Median {
		t.Fatalf("query-only training did not improve: UAE-Q median %v vs untrained %v",
			evQ.Summary.Median, evU.Summary.Median)
	}
	if m.Name() != "UAE-Q" {
		t.Fatalf("name = %q", m.Name())
	}
}

func TestUAEAtLeastMatchesData(t *testing.T) {
	tb := dataset.SynthTWI(4000, 5)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 200, Seed: 6})
	cfg := Config{Base: baseCfg(), QueryEpochs: 3, QueryBatch: 16}
	m, err := TrainUAE(tb, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	test := testutil.Workload(t, tb, query.GenConfig{NumQueries: 60, Seed: 7})
	ev, err := estimator.Evaluate(m, test, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	// Must remain a competent estimator after fine-tuning.
	if ev.Summary.Median > 4 {
		t.Fatalf("UAE median q-error %v: %v", ev.Summary.Median, ev.Summary)
	}
	if m.Name() != "UAE" {
		t.Fatalf("name = %q", m.Name())
	}
}

func TestUAENeedsWorkload(t *testing.T) {
	tb := dataset.SynthTWI(500, 8)
	if _, err := TrainUAEQ(tb, &query.Workload{}, Config{Base: baseCfg()}); err == nil {
		t.Fatal("expected error without training queries")
	}
}

// TestSameSeedBitIdentical: query training shuffles its workload from the
// base seed alone, so two runs end at the same weights.
func TestSameSeedBitIdentical(t *testing.T) {
	tb := skewedTable(600, 5)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 24, Seed: 6})
	test := testutil.Workload(t, tb, query.GenConfig{NumQueries: 6, Seed: 7})
	base := naru.Config{MaxSubColumn: 64, Hidden: []int{16, 16}, EmbedDim: 8, Epochs: 1, BatchSize: 128, NumSamples: 32, Seed: 8}
	testutil.SameSeedTwice(t, func() []float64 {
		m, err := TrainUAE(tb, train, Config{Base: base, QueryEpochs: 1, QueryBatch: 8, TrainSamples: 16})
		if err != nil {
			t.Fatal(err)
		}
		return testutil.Estimates(t, m, test.Queries)
	})
}
