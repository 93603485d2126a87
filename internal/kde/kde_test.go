package kde

import (
	"testing"

	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/testutil"
)

func TestKDEOnSmoothData(t *testing.T) {
	tb := dataset.SynthTWI(8000, 1)
	e, err := New(tb, Config{SampleSize: 1500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 80, Seed: 3})
	ev, err := estimator.Evaluate(e, w, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	// KDE suits smooth continuous spatial data (the paper's TWI finding).
	if ev.Summary.Median > 2 {
		t.Fatalf("median q-error %v: %v", ev.Summary.Median, ev.Summary)
	}
}

func TestBandwidthTuningDoesNotHurt(t *testing.T) {
	tb := dataset.SynthHIGGS(4000, 4)
	e, err := New(tb, Config{SampleSize: 800, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	train := testutil.Workload(t, tb, query.GenConfig{NumQueries: 60, Seed: 6})
	test := testutil.Workload(t, tb, query.GenConfig{NumQueries: 60, Seed: 7})
	before, err := estimator.Evaluate(e, test, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	e.TuneBandwidth(train, tb.NumRows())
	after, err := estimator.Evaluate(e, test, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if after.Summary.Median > before.Summary.Median*1.5+0.5 {
		t.Fatalf("tuning made KDE much worse: %v -> %v", before.Summary.Median, after.Summary.Median)
	}
}

func TestKDEUnconstrainedIsOne(t *testing.T) {
	tb := dataset.SynthTWI(1000, 8)
	e, err := New(tb, Config{SampleSize: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate(query.NewQuery(tb))
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.999 {
		t.Fatalf("unconstrained estimate %v, want ≈1", got)
	}
}

func TestKDESizeAndErrors(t *testing.T) {
	tb := dataset.SynthTWI(1000, 10)
	e, err := New(tb, Config{SampleSize: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if e.SizeBytes() != 8*(100*2+2) {
		t.Fatalf("size = %d", e.SizeBytes())
	}
	other := dataset.SynthTWI(100, 12)
	if _, err := e.Estimate(query.NewQuery(other)); err == nil {
		t.Fatal("expected wrong-table error")
	}
}

// TestSameSeedBitIdentical: the kernel centres are drawn from the seed alone.
func TestSameSeedBitIdentical(t *testing.T) {
	tb := dataset.SynthTWI(2000, 7)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 20, Seed: 8})
	testutil.SameSeedTwice(t, func() []float64 {
		e, err := New(tb, Config{SampleSize: 200, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return testutil.Estimates(t, e, w.Queries)
	})
}
