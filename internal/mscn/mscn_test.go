package mscn

import (
	"math"
	"testing"

	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/testutil"
)

func TestMSCNLearnsWorkload(t *testing.T) {
	tb := dataset.SynthTWI(6000, 1)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 800, Seed: 2})
	e, err := New(tb, train, Config{Epochs: 20, Samples: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	test := testutil.Workload(t, tb, query.GenConfig{NumQueries: 100, Seed: 4})
	ev, err := estimator.Evaluate(e, test, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Summary.Median > 3 {
		t.Fatalf("median q-error %v: %v", ev.Summary.Median, ev.Summary)
	}
}

func TestMSCNBatchMatchesSingle(t *testing.T) {
	tb := dataset.SynthTWI(2000, 5)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 200, Seed: 6})
	e, err := New(tb, train, Config{Epochs: 5, Samples: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	test := testutil.Workload(t, tb, query.GenConfig{NumQueries: 20, Seed: 8})
	batch, err := e.EstimateBatch(test.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range test.Queries {
		single, err := e.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(batch[i]-single) > 1e-9 {
			t.Fatalf("query %d: batch %v vs single %v", i, batch[i], single)
		}
	}
}

func TestTargetInversion(t *testing.T) {
	tb := dataset.SynthTWI(1000, 9)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 50, Seed: 10})
	e, err := New(tb, train, Config{Epochs: 1, Samples: 50, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []float64{1, 0.1, 0.001, 1.0 / 1000} {
		y := e.target(sel)
		if y < 0 || y > 1 {
			t.Fatalf("target(%v) = %v out of [0,1]", sel, y)
		}
		back := e.invert(y)
		if math.Abs(math.Log(back)-math.Log(math.Max(sel, 1.0/1000))) > 1e-9 {
			t.Fatalf("inversion of %v gave %v", sel, back)
		}
	}
}

func TestFeaturizeShapes(t *testing.T) {
	tb := dataset.SynthWISDM(500, 12)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 30, Seed: 13})
	e, err := New(tb, train, Config{Epochs: 1, Samples: 20, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewQuery(tb)
	if err := q.AddPredicate(query.Predicate{Col: "x", Op: query.Ge, Value: 0}); err != nil {
		t.Fatal(err)
	}
	if err := q.AddPredicate(query.Predicate{Col: "x", Op: query.Le, Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.AddPredicate(query.Predicate{Col: "subject_id", Op: query.Eq, Value: 3}); err != nil {
		t.Fatal(err)
	}
	rows := e.featurize(q)
	if len(rows) != 3 { // ≥, ≤ on x plus = on subject_id
		t.Fatalf("featurize produced %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if len(r) != tb.NumCols()+4 {
			t.Fatalf("feature dim %d, want %d", len(r), tb.NumCols()+4)
		}
	}
}

func TestNeedsTrainingWorkload(t *testing.T) {
	tb := dataset.SynthTWI(100, 15)
	if _, err := New(tb, &query.Workload{}, Config{}); err == nil {
		t.Fatal("expected error without training data")
	}
}

// TestSameSeedBitIdentical: the bitmap sample, the initial weights and the
// batch order come from the seed alone.
func TestSameSeedBitIdentical(t *testing.T) {
	tb := dataset.SynthTWI(2000, 13)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 60, Seed: 14})
	test := testutil.Workload(t, tb, query.GenConfig{NumQueries: 10, Seed: 15})
	testutil.SameSeedTwice(t, func() []float64 {
		e, err := New(tb, train, Config{Hidden: 16, PoolDim: 8, Samples: 100, Epochs: 2, BatchSize: 16, Seed: 16})
		if err != nil {
			t.Fatal(err)
		}
		return testutil.Estimates(t, e, test.Queries)
	})
}
