package naru

import (
	"math"
	"testing"

	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/testutil"
)

func fastCfg() Config {
	return Config{
		MaxSubColumn: 128,
		Hidden:       []int{32, 32},
		EmbedDim:     16,
		Epochs:       6,
		BatchSize:    128,
		NumSamples:   400,
		Seed:         1,
	}
}

func TestNeurocardFactorsLargeDomains(t *testing.T) {
	tb := dataset.SynthTWI(3000, 2)
	m, err := Train(tb, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	cards := m.ARColumns()
	// Each continuous column has ~3000 distinct values → factored into
	// multiple subcolumns of ≤ 128.
	if len(cards) < 4 {
		t.Fatalf("AR columns = %v, expected factored subcolumns", cards)
	}
	for _, c := range cards {
		if c > 128 {
			t.Fatalf("subcolumn card %d exceeds cap", c)
		}
	}
}

func TestNeurocardAccuracyWISDM(t *testing.T) {
	tb := dataset.SynthWISDM(4000, 3)
	cfg := fastCfg()
	cfg.Epochs = 8
	m, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 80, Seed: 4})
	ev, err := estimator.Evaluate(m, w, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Summary.Median > 3.5 {
		t.Fatalf("median q-error %v: %v", ev.Summary.Median, ev.Summary)
	}
}

func TestColumnOrderAblation(t *testing.T) {
	tb := dataset.SynthWISDM(2500, 5)
	cfg := fastCfg()
	cfg.ColumnOrder = []int{4, 3, 2, 1, 0} // reversed
	m, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 40, Seed: 6})
	ev, err := estimator.Evaluate(m, w, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	// Reversed order must still produce a working estimator.
	if ev.Summary.Median > 5 {
		t.Fatalf("reversed-order median q-error %v", ev.Summary.Median)
	}
}

func TestColumnOrderValidation(t *testing.T) {
	tb := dataset.SynthTWI(500, 7)
	cfg := fastCfg()
	cfg.ColumnOrder = []int{0} // wrong length
	if _, err := Train(tb, cfg); err == nil {
		t.Fatal("expected column-order length error")
	}
}

func TestEmptyRangeIsZero(t *testing.T) {
	tb := dataset.SynthTWI(2000, 8)
	m, err := Train(tb, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewQuery(tb)
	if err := q.AddPredicate(query.Predicate{Col: "latitude", Op: query.Ge, Value: 1000}); err != nil {
		t.Fatal(err)
	}
	got, err := m.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-6 {
		t.Fatalf("impossible range estimate %v", got)
	}
}

func TestSizeBytesPositive(t *testing.T) {
	tb := dataset.SynthTWI(1500, 9)
	m, err := Train(tb, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if m.SizeBytes() <= 0 {
		t.Fatal("size must be positive")
	}
}

func TestWrongTableRejected(t *testing.T) {
	tb := dataset.SynthTWI(500, 10)
	m, err := Train(tb, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	other := dataset.SynthTWI(100, 11)
	if _, err := m.Estimate(query.NewQuery(other)); err == nil {
		t.Fatal("expected wrong-table error")
	}
}

// TestCategoricalBoundsBeyondInt: subject_id bounds outside the int range
// are compared as floats; before, 1e300 and +Inf wrapped to MinInt64 and
// admitted every code, and 1e19 wrapped to admit none.
func TestCategoricalBoundsBeyondInt(t *testing.T) {
	tb := dataset.SynthWISDM(3000, 13)
	cfg := fastCfg()
	cfg.Epochs = 2
	cfg.NumSamples = 64
	m, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]float64{
		"subject_id >= 1e300": 0,
		"subject_id >= Inf":   0,
		"subject_id <= 1e19":  1,
	} {
		q, err := query.Parse(tb, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if truth := query.Exec(q); truth != want {
			t.Fatalf("%s: truth %v, test premise wants %v", sql, truth, want)
		}
		est, err := m.Estimate(q)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if math.Abs(est-want) > 1e-9 || (want == 0 && est != 0) {
			t.Errorf("%s: estimate %v, want %v", sql, est, want)
		}
	}
}
