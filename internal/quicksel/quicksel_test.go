package quicksel

import (
	"math"
	"testing"

	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/testutil"
)

func TestQuickSelLearnsFromQueries(t *testing.T) {
	tb := dataset.SynthTWI(6000, 1)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 400, Seed: 2})
	e, err := New(tb, train, Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	test := testutil.Workload(t, tb, query.GenConfig{NumQueries: 80, Seed: 4})
	ev, err := estimator.Evaluate(e, test, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	// QuickSel is a weak estimator (the paper's finding) but must beat a
	// blind guess on the median for in-distribution workloads.
	if ev.Summary.Median > 8 {
		t.Fatalf("median q-error %v: %v", ev.Summary.Median, ev.Summary)
	}
}

func TestTrainingFitImproves(t *testing.T) {
	tb := dataset.SynthTWI(4000, 5)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 200, Seed: 6})
	e, err := New(tb, train, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// On the training queries themselves the fit must be decent.
	var sse float64
	for i, q := range train.Queries {
		est, err := e.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		d := est - train.TrueSel[i]
		sse += d * d
	}
	mse := sse / float64(len(train.Queries))
	if mse > 0.02 {
		t.Fatalf("training MSE %v too high", mse)
	}
}

func TestWeightsOnSimplex(t *testing.T) {
	tb := dataset.SynthHIGGS(2000, 8)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 100, Seed: 9})
	e, err := New(tb, train, Config{MaxKernels: 64, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range e.weights {
		if w < -1e-12 {
			t.Fatalf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestProjectSimplex(t *testing.T) {
	w := []float64{0.5, 0.6, -0.2}
	projectSimplex(w)
	var sum float64
	for _, v := range w {
		if v < 0 {
			t.Fatalf("negative after projection: %v", w)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum after projection %v", sum)
	}
	// Already-feasible points stay put.
	w2 := []float64{0.25, 0.25, 0.5}
	projectSimplex(w2)
	if math.Abs(w2[0]-0.25) > 1e-9 || math.Abs(w2[2]-0.5) > 1e-9 {
		t.Fatalf("feasible point moved: %v", w2)
	}
}

func TestNeedsTrainingWorkload(t *testing.T) {
	tb := dataset.SynthTWI(100, 11)
	if _, err := New(tb, &query.Workload{}, Config{}); err == nil {
		t.Fatal("expected error without training queries")
	}
}

func TestUnconstrainedIsOne(t *testing.T) {
	tb := dataset.SynthTWI(2000, 12)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 100, Seed: 13})
	e, err := New(tb, train, Config{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate(query.NewQuery(tb))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 0.05 {
		t.Fatalf("unconstrained estimate %v", got)
	}
}

// TestSameSeedBitIdentical: the kernel sample and the power-iteration start
// vector (which sets the gradient step) come from the seed alone.
func TestSameSeedBitIdentical(t *testing.T) {
	tb := dataset.SynthTWI(2000, 17)
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 60, Seed: 18})
	test := testutil.Workload(t, tb, query.GenConfig{NumQueries: 10, Seed: 19})
	testutil.SameSeedTwice(t, func() []float64 {
		e, err := New(tb, train, Config{MaxKernels: 30, Iters: 20, Seed: 20})
		if err != nil {
			t.Fatal(err)
		}
		return testutil.Estimates(t, e, test.Queries)
	})
}
