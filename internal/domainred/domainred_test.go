package domainred

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/estimator"
	"iam/internal/query"
	"iam/internal/testutil"
)

func skewedValues(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64())
	}
	return xs
}

func TestEquiDepthBucketsBalanced(t *testing.T) {
	xs := skewedValues(10000, 1)
	ed := NewEquiDepth(xs, 20)
	if ed.K() != 20 {
		t.Fatalf("K = %d", ed.K())
	}
	counts := make([]int, 20)
	for _, v := range xs {
		b := ed.Assign(v)
		if b < 0 || b >= 20 {
			t.Fatalf("assign out of range: %d", b)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c < 100 || c > 2000 {
			t.Fatalf("bucket %d holds %d of 10000 — not equi-depth", b, c)
		}
	}
}

func TestRangeMassFullDomain(t *testing.T) {
	xs := skewedValues(5000, 2)
	for _, r := range []core.Reducer{
		NewEquiDepth(xs, 10),
		NewSpline(xs, 10),
		NewUMM(xs, 10, 20, 3),
	} {
		out := make([]float64, r.K())
		r.RangeMass(math.Inf(-1), math.Inf(1), out)
		for k, m := range out {
			if m < 0.99 || m > 1.01 {
				t.Fatalf("%T component %d full-domain mass %v, want 1", r, k, m)
			}
		}
		r.RangeMass(5, 1, out) // reversed
		for k, m := range out {
			if m != 0 {
				t.Fatalf("%T component %d reversed-range mass %v", r, k, m)
			}
		}
	}
}

func TestSplineKnotsConcentrateWhereCDFBends(t *testing.T) {
	// Data with a sharp bend in the CDF: half the mass at ≈0, half spread
	// over [10, 20]. The spline should place boundaries near the bend.
	n := 8000
	xs := make([]float64, n)
	rng := rand.New(rand.NewSource(4))
	for i := range xs {
		if i%2 == 0 {
			xs[i] = rng.Float64() * 0.1
		} else {
			xs[i] = 10 + rng.Float64()*10
		}
	}
	sp := NewSpline(xs, 8)
	// At least one boundary must fall in the empty gap (0.1, 10) edge
	// region — i.e. a knot at the bend.
	found := false
	for _, b := range sp.bounds {
		if b > 0.05 && b < 10.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("spline knots %v ignore the CDF bend", sp.bounds)
	}
}

func TestUMMCoversData(t *testing.T) {
	xs := skewedValues(6000, 5)
	u := NewUMM(xs, 15, 25, 6)
	// Weights on the simplex.
	var sum float64
	for _, w := range u.w {
		if w < 0 {
			t.Fatalf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	// Every data point assigned to a valid component.
	for _, v := range xs[:500] {
		if k := u.Assign(v); k < 0 || k >= u.K() {
			t.Fatalf("assign %v -> %d", v, k)
		}
	}
}

// TestAlternativesInsideIAM runs the paper's §6.6 swap: IAM with each
// reducer must remain a working estimator, and on skewed data the GMM
// variant should not lose to the uniform-assumption alternatives at the
// tail (Tables 9-11's shape).
func TestAlternativesInsideIAM(t *testing.T) {
	tb := dataset.SynthHIGGS(4000, 7)
	w := testutil.Workload(t, tb, query.GenConfig{NumQueries: 80, Seed: 8})

	base := core.Config{
		Components: 20,
		Hidden:     []int{32, 32},
		EmbedDim:   16,
		Epochs:     6,
		BatchSize:  128,
		NumSamples: 300,
		GMMSamples: 3000,
		Seed:       9,
	}
	results := map[string]estimator.Summary{}
	run := func(name string, factory func([]float64, int, int64) core.Reducer) {
		cfg := base
		cfg.ReducerFactory = factory
		m, err := core.Train(tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := estimator.Evaluate(m, w, tb.NumRows())
		if err != nil {
			t.Fatal(err)
		}
		results[name] = ev.Summary
	}
	run("gmm", nil) // nil factory = the real GMM path
	run("hist", EquiDepthFactory())
	run("spline", SplineFactory())
	run("umm", UMMFactory())

	for name, s := range results {
		if s.Median > 6 {
			t.Fatalf("%s median q-error %v: %v", name, s.Median, s)
		}
	}
}

// TestSameSeedBitIdentical: above 20,000 values UMM fits on a subsample,
// drawn from the seed alone.
func TestSameSeedBitIdentical(t *testing.T) {
	xs := skewedValues(20500, 8)
	testutil.SameSeedTwice(t, func() []float64 {
		u := NewUMM(xs, 6, 2, 9)
		return append(append(append([]float64(nil), u.w...), u.a...), u.b...)
	})
}

// TestAggregatesOnReducerColumns: AVG and SUM of a reducer-reduced column
// answer when the query leaves a side of it unbounded, and AVG reads the
// model: each sampled path contributes the midpoint of its code's range
// clipped to the query and to the observed values, so the answer lands
// within 5 % of the exact table average.
func TestAggregatesOnReducerColumns(t *testing.T) {
	tb := dataset.SynthTWI(2000, 10)
	for name, factory := range map[string]func([]float64, int, int64) core.Reducer{
		"hist": EquiDepthFactory(), "spline": SplineFactory(), "umm": UMMFactory(),
	} {
		m, err := core.Train(tb, core.Config{
			GMMThreshold: 50, Components: 8, Hidden: []int{16, 16}, EmbedDim: 8,
			Epochs: 4, BatchSize: 128, NumSamples: 400, Seed: 11, ReducerFactory: factory,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{"latitude >= 40", "latitude <= 35", "longitude <= -100"} {
			q, err := query.Parse(tb, sql)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := exactAvg(q, "latitude")
			if err != nil {
				t.Fatal(err)
			}
			avg, err := m.EstimateAvg(q, "latitude")
			if err != nil {
				t.Fatalf("%s: AVG(latitude | %s): %v", name, sql, err)
			}
			t.Logf("%s: AVG(latitude | %s) = %.4f, exact %.4f", name, sql, avg, exact)
			if math.Abs(avg-exact) > 0.05*math.Abs(exact) {
				t.Errorf("%s: AVG(latitude | %s) = %v, want within 5%% of the exact %v", name, sql, avg, exact)
			}
			if _, err := m.EstimateSum(q, "latitude"); err != nil {
				t.Fatalf("%s: SUM(latitude | %s): %v", name, sql, err)
			}
		}
	}
}

// exactAvg is AVG(col) over the rows of q's table that satisfy q.
func exactAvg(q *query.Query, col string) (float64, error) {
	vals := q.Table.Columns[q.Table.ColumnIndex(col)].Floats
	var sum float64
	var n int
	for ri, v := range vals {
		if q.Matches(ri) {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no row matches")
	}
	return sum / float64(n), nil
}
