package sampling

import (
	"math"
	"testing"

	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/testutil"
)

func TestSamplingAccuracy(t *testing.T) {
	tb := dataset.SynthTWI(10000, 1)
	e, err := New(tb, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 100, Seed: 3})
	ev, err := estimator.Evaluate(e, w, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	// A 20% sample should be accurate in the median but can blow up on
	// low-selectivity tails — exactly the paper's finding.
	if ev.Summary.Median > 1.5 {
		t.Fatalf("median q-error %v: %v", ev.Summary.Median, ev.Summary)
	}
}

func TestSamplingFullSampleIsExact(t *testing.T) {
	tb := dataset.SynthTWI(500, 4)
	e, err := New(tb, 500, 5)
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 30, Seed: 6})
	for i, q := range w.Queries {
		got, err := e.Estimate(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-w.TrueSel[i]) > 1e-12 {
			t.Fatalf("full sample not exact: %v vs %v", got, w.TrueSel[i])
		}
	}
}

func TestNewWithBudget(t *testing.T) {
	tb := dataset.SynthWISDM(5000, 7)
	e, err := NewWithBudget(tb, 40_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.SizeBytes(); got > 41_000 {
		t.Fatalf("sample size %d exceeds budget", got)
	}
	if len(e.rows) != 40_000/(8*5) {
		t.Fatalf("rows = %d", len(e.rows))
	}
}

func TestSamplingWrongTable(t *testing.T) {
	tb := dataset.SynthTWI(100, 9)
	e, _ := New(tb, 50, 10)
	other := dataset.SynthTWI(100, 11)
	if _, err := e.Estimate(query.NewQuery(other)); err == nil {
		t.Fatal("expected wrong-table error")
	}
}

func TestSamplingEmptyTable(t *testing.T) {
	tb := &dataset.Table{Name: "empty"}
	if _, err := New(tb, 10, 1); err == nil {
		t.Fatal("expected error on empty table")
	}
}

// TestSameSeedBitIdentical: the sample is drawn from the seed alone.
func TestSameSeedBitIdentical(t *testing.T) {
	tb := dataset.SynthTWI(2000, 4)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 20, Seed: 5})
	testutil.SameSeedTwice(t, func() []float64 {
		e, err := New(tb, 200, 6)
		if err != nil {
			t.Fatal(err)
		}
		return testutil.Estimates(t, e, w.Queries)
	})
}
