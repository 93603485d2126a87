package core

import (
	"math"
	"slices"
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
)

func exactAvg(q *query.Query, col string) (avg, sum float64, n int) {
	t := q.Table
	ci := t.ColumnIndex(col)
	for i := 0; i < t.NumRows(); i++ {
		if q.Matches(i) {
			sum += t.Columns[ci].Floats[i]
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return sum / float64(n), sum, n
}

func TestEstimateAvgUnconstrained(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	q := query.NewQuery(tb)
	got, err := m.EstimateAvg(q, "latitude")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := exactAvg(q, "latitude")
	spread := 24.0 // latitude span of the synthetic data
	if math.Abs(got-want) > spread*0.1 {
		t.Fatalf("AVG(latitude) = %v, want ≈%v", got, want)
	}
}

func TestEstimateAvgWithPredicate(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	q := query.NewQuery(tb)
	mustAdd(t, q, query.Predicate{Col: "latitude", Op: query.Ge, Value: 40})
	got, err := m.EstimateAvg(q, "latitude")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := exactAvg(q, "latitude")
	if math.Abs(got-want) > 2.5 {
		t.Fatalf("AVG(latitude | lat>=40) = %v, want ≈%v", got, want)
	}
	// The conditional average must respect the predicate region.
	if got < 39 {
		t.Fatalf("conditional AVG %v below the predicate bound", got)
	}
}

func TestEstimateAvgCrossColumn(t *testing.T) {
	// AVG of longitude restricted by a latitude band exercises the learned
	// correlation (lat and lon cluster together in TWI).
	m, tb := trainTWI(t, fastCfg())
	q := query.NewQuery(tb)
	mustAdd(t, q, query.Predicate{Col: "latitude", Op: query.Le, Value: 32})
	got, err := m.EstimateAvg(q, "longitude")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := exactAvg(q, "longitude")
	uncond, _, _ := exactAvg(query.NewQuery(tb), "longitude")
	// Must be closer to the conditional truth than the unconditional mean
	// unless they nearly coincide.
	if math.Abs(want-uncond) > 3 && math.Abs(got-want) > math.Abs(got-uncond) {
		t.Fatalf("AVG ignores correlation: got %v, conditional %v, unconditional %v",
			got, want, uncond)
	}
	if math.Abs(got-want) > 8 {
		t.Fatalf("AVG(longitude | lat<=32) = %v, want ≈%v", got, want)
	}
}

func TestEstimateSum(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	q := query.NewQuery(tb)
	mustAdd(t, q, query.Predicate{Col: "latitude", Op: query.Ge, Value: 38})
	got, err := m.EstimateSum(q, "latitude")
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := exactAvg(q, "latitude")
	if want == 0 {
		t.Skip("degenerate workload")
	}
	ratio := got / want
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("SUM estimate %v vs exact %v (ratio %v)", got, want, ratio)
	}
}

// TestEstimateAvgFactoredTarget covers the AVG path that samples the target
// itself: with GMM reduction off, TWI's coordinates are factored, so an
// unconstrained target is admitted in full and drawn, and a constrained one
// is drawn inside its range.
func TestEstimateAvgFactoredTarget(t *testing.T) {
	cfg := fastCfg()
	cfg.GMMThreshold = 1 << 30
	cfg.MaxSubColumn = 64
	m, tb := trainTWI(t, cfg)
	if m.cols[0].kind != kindFactored {
		t.Fatal("test premise broken: latitude is not factored")
	}
	for _, tc := range []struct {
		col  string
		pred *query.Predicate
	}{
		{"latitude", nil},
		{"latitude", &query.Predicate{Col: "latitude", Op: query.Ge, Value: 40}},
		{"longitude", &query.Predicate{Col: "latitude", Op: query.Ge, Value: 40}},
	} {
		q := query.NewQuery(tb)
		if tc.pred != nil {
			mustAdd(t, q, *tc.pred)
		}
		got, err := m.EstimateAvg(q, tc.col)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := exactAvg(q, tc.col)
		vals := tb.Columns[tb.ColumnIndex(tc.col)].Floats
		spread := slices.Max(vals) - slices.Min(vals)
		if math.Abs(got-want) > 0.1*spread {
			t.Fatalf("AVG(%s | %v) = %v, want ≈%v (column spread %v)", tc.col, tc.pred, got, want, spread)
		}
	}
}

func TestEstimateAvgErrors(t *testing.T) {
	m, tb := trainTWI(t, fastCfg())
	q := query.NewQuery(tb)
	if _, err := m.EstimateAvg(q, "nope"); err == nil {
		t.Fatal("expected unknown-column error")
	}
	wisTab := dataset.SynthWISDM(2500, 31)
	wis, err := Train(wisTab, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	qw := query.NewQuery(wisTab)
	if _, err := wis.EstimateAvg(qw, "subject_id"); err == nil {
		t.Fatal("expected categorical-target error")
	}
}

func TestTruncatedNormalMean(t *testing.T) {
	// Symmetric truncation keeps the mean.
	v, ok := truncatedNormalMean(5, 2, 3, 7)
	if !ok || math.Abs(v-5) > 1e-9 {
		t.Fatalf("symmetric truncation mean %v", v)
	}
	// One-sided truncation pulls the mean into the region.
	v, ok = truncatedNormalMean(0, 1, 1, math.Inf(1))
	if !ok || v < 1 {
		t.Fatalf("lower truncation mean %v, want ≥ 1", v)
	}
	// Known value: E[X | X ≥ 0] for N(0,1) = √(2/π) ≈ 0.7979.
	v, _ = truncatedNormalMean(0, 1, 0, math.Inf(1))
	if math.Abs(v-0.7978845608) > 1e-6 {
		t.Fatalf("half-normal mean %v", v)
	}
	// Disjoint interval falls back to the nearest endpoint.
	v, ok = truncatedNormalMean(0, 0.1, 100, 101)
	if !ok || v != 100 {
		t.Fatalf("far truncation %v", v)
	}
}
