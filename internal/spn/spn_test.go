package spn

import (
	"math"
	"testing"

	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/testutil"
)

func TestSPNWorkloadAccuracy(t *testing.T) {
	tb := dataset.SynthWISDM(8000, 1)
	e, err := New(tb, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 100, Seed: 3})
	ev, err := estimator.Evaluate(e, w, tb.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Summary.Median > 2.5 {
		t.Fatalf("median q-error %v: %v", ev.Summary.Median, ev.Summary)
	}
}

func TestProductSplitOnIndependentColumns(t *testing.T) {
	// Fully independent columns → the root should become a product node.
	n := 5000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64((i * 13) % 101)
		b[i] = float64((i * 31) % 97)
	}
	tb := &dataset.Table{Name: "ind", Columns: []*dataset.Column{
		{Name: "a", Kind: dataset.Continuous, Floats: a},
		{Name: "b", Kind: dataset.Continuous, Floats: b},
	}}
	e, err := New(tb, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !e.root.isProd {
		t.Fatal("independent columns did not yield a product root")
	}
}

func TestSumSplitOnClusteredRows(t *testing.T) {
	// Two clusters with strong within-cluster dependence: root should be a
	// sum node (row split), not a blanket independence assumption.
	n := 4000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			a[i] = 10 + float64(i%50)*0.01
			b[i] = 10 + a[i] - 10
		} else {
			a[i] = -10 - float64(i%50)*0.01
			b[i] = -10 + (a[i] + 10)
		}
	}
	tb := &dataset.Table{Name: "clust", Columns: []*dataset.Column{
		{Name: "a", Kind: dataset.Continuous, Floats: a},
		{Name: "b", Kind: dataset.Continuous, Floats: b},
	}}
	e, err := New(tb, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if e.root.isProd || e.root.leafHist != nil {
		t.Fatal("clustered dependent data did not yield a sum root")
	}
	// The clusters make the conjunction a ≤ 0 AND b ≤ 0 exactly 0.5.
	q := query.NewQuery(tb)
	if err := q.AddPredicate(query.Predicate{Col: "a", Op: query.Le, Value: 0}); err != nil {
		t.Fatal(err)
	}
	if err := q.AddPredicate(query.Predicate{Col: "b", Op: query.Le, Value: 0}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("cluster conjunction estimate %v, want ≈0.5", got)
	}
}

func TestUnconstrainedIsOne(t *testing.T) {
	tb := dataset.SynthHIGGS(3000, 6)
	e, err := New(tb, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Estimate(query.NewQuery(tb))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 0.02 {
		t.Fatalf("unconstrained estimate %v", got)
	}
}

func TestLeafMass(t *testing.T) {
	lh := &leafHist{
		lo:   []float64{0, 10},
		hi:   []float64{10, 20},
		mass: []float64{0.5, 0.5},
	}
	r := &query.Interval{Lo: 5, Hi: 15, LoInc: true, HiInc: true}
	if got := leafMass(lh, r); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("leaf mass %v, want 0.5", got)
	}
	if got := leafMass(lh, nil); got != 1 {
		t.Fatalf("nil range mass %v", got)
	}
	cat := &leafHist{identity: true, freqs: []float64{0.2, 0.3, 0.5}}
	r2 := &query.Interval{Lo: 1, Hi: 2, LoInc: true, HiInc: true}
	if got := leafMass(cat, r2); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("categorical mass %v, want 0.8", got)
	}
}

func TestSizeBytesAndWrongTable(t *testing.T) {
	tb := dataset.SynthTWI(1500, 8)
	e, err := New(tb, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if e.SizeBytes() <= 0 {
		t.Fatal("size must be positive")
	}
	other := dataset.SynthTWI(100, 10)
	if _, err := e.Estimate(query.NewQuery(other)); err == nil {
		t.Fatal("expected wrong-table error")
	}
}

// TestSameSeedBitIdentical: the row clustering behind sum nodes draws its
// starting centres from the seed alone. Points on a circle have no best
// two-way split, so where the centres start decides the partition.
func TestSameSeedBitIdentical(t *testing.T) {
	n := 2000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		theta := 2 * math.Pi * math.Mod(float64(i)*0.6180339887, 1)
		x[i], y[i] = math.Cos(theta), math.Sin(theta)
	}
	tb := &dataset.Table{Name: "circle", Columns: []*dataset.Column{
		{Name: "x", Kind: dataset.Continuous, Floats: x},
		{Name: "y", Kind: dataset.Continuous, Floats: y},
	}}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 20, Seed: 11})
	testutil.SameSeedTwice(t, func() []float64 {
		e, err := New(tb, Config{MinRows: 200, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		return testutil.Estimates(t, e, w.Queries)
	})
}

// TestSameSeedProductBitIdentical: a product node multiplies its children's
// probabilities in the order of their scopes, and a product of three or
// more floats depends on that order. Four independent columns give a
// four-way product root, which the dependence grouping must order the same
// way on every build: eight builds from one seed answer bit for bit alike.
func TestSameSeedProductBitIdentical(t *testing.T) {
	n := 5000
	cols := make([]*dataset.Column, 4)
	for c, mul := range []int{13, 31, 7, 17} {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64((i * mul) % (101 - 4*c))
		}
		cols[c] = &dataset.Column{Name: string(rune('a' + c)), Kind: dataset.Continuous, Floats: vals}
	}
	tb := &dataset.Table{Name: "ind4", Columns: cols}
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 40, Seed: 13})
	var first []float64
	for build := 0; build < 8; build++ {
		e, err := New(tb, Config{Seed: 14})
		if err != nil {
			t.Fatal(err)
		}
		if !e.root.isProd || len(e.root.children) < 3 {
			t.Fatalf("root is not a product of three or more children (product %v, %d children)", e.root.isProd, len(e.root.children))
		}
		ests := testutil.Estimates(t, e, w.Queries)
		if first == nil {
			first = ests
			continue
		}
		for i := range ests {
			if math.Float64bits(ests[i]) != math.Float64bits(first[i]) {
				t.Fatalf("build %d, query %d: %v, the first build %v", build, i, ests[i], first[i])
			}
		}
	}
}
