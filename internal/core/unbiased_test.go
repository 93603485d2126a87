package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
)

// unbiasedSeeds is the number of independent sampling streams each query is
// estimated with; their mean is compared against exact enumeration.
const unbiasedSeeds = 200

// unbiasedFixture trains a small WISDM model with deterministic (MassExact)
// range masses and draws random range queries over its GMM-reduced columns
// x, y and z, each constraining one to three of them.
func unbiasedFixture(t *testing.T) (*Model, []*query.Query) {
	t.Helper()
	tb := dataset.SynthWISDM(2000, 71)
	cfg := fastCfg()
	cfg.Epochs = 2
	cfg.Components = 6
	cfg.MaxSubColumn = 20
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8
	cfg.NumSamples = 16
	cfg.MassMode = MassExact
	m, err := Train(tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	var gmmCols []int
	for ci := range m.cols {
		if m.cols[ci].kind == kindGMM {
			gmmCols = append(gmmCols, ci)
		}
	}
	if len(gmmCols) != 3 {
		t.Fatalf("%d GMM-reduced columns, want x, y and z", len(gmmCols))
	}
	var qs []*query.Query
	for len(qs) < 10 {
		q := query.NewQuery(tb)
		for _, ci := range gmmCols {
			if len(qs)%3 != 0 && rng.Intn(2) == 0 {
				continue // leave some columns unconstrained
			}
			vals := tb.Columns[ci].Floats
			lo, hi := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
			if lo > hi {
				lo, hi = hi, lo
			}
			q.Ranges[ci] = &query.Interval{Lo: lo, Hi: hi, LoInc: true, HiInc: true}
		}
		if q.NumFilters() > 0 {
			qs = append(qs, q)
		}
	}
	return m, qs
}

// exactAnswers enumerates each query's selectivity under the model (the
// value progressive sampling estimates without bias).
func exactAnswers(t *testing.T, m *Model, qs []*query.Query) []float64 {
	t.Helper()
	if _, err := m.EstimateBatch(qs); err != nil { // refreshes the masses
		t.Fatal(err)
	}
	exact := make([]float64, len(qs))
	for i, q := range qs {
		cons, err := m.buildConstraints(q)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		if exact[i], ok = m.arm.EstimateExhaustive(cons, 1<<16); !ok {
			t.Fatalf("query %d: enumeration infeasible", i)
		}
	}
	return exact
}

// biasedQueries estimates every query with unbiasedSeeds independent seeds
// and returns the queries whose mean lies outside a z-bound of exact. The
// bound uses the standard error of the mean from the seeds' own spread and
// is Bonferroni-corrected over the queries for a family-wise false alarm
// rate of 1e-3. It also reports how many queries had a nonzero spread.
func biasedQueries(t *testing.T, m *Model, qs []*query.Query, exact []float64) (biased []string, spread int) {
	t.Helper()
	sum := make([]float64, len(qs))
	sumSq := make([]float64, len(qs))
	seeds := make([]int64, len(qs))
	for s := 0; s < unbiasedSeeds; s++ {
		for i := range seeds {
			seeds[i] = int64(1_000_003*s + i + 1)
		}
		ests, err := m.EstimateBatchSeeded(qs, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range ests {
			sum[i] += e
			sumSq[i] += e * e
		}
	}
	const familyAlpha = 1e-3
	z := math.Sqrt2 * math.Erfcinv(familyAlpha/float64(len(qs)))
	n := float64(unbiasedSeeds)
	for i := range qs {
		mean := sum[i] / n
		sd := math.Sqrt(math.Max(0, (sumSq[i]-n*mean*mean)/(n-1)))
		if sd > 0 {
			spread++
		}
		if bound := z*sd/math.Sqrt(n) + 1e-12; math.Abs(mean-exact[i]) > bound {
			biased = append(biased, fmt.Sprintf("query %d: mean %v ± %v over %d seeds, exact %v",
				i, mean, sd/math.Sqrt(n), unbiasedSeeds, exact[i]))
		}
	}
	return biased, spread
}

// TestEstimateUnbiasedAgainstEnumeration checks §5's unbiasedness end to
// end through core: over GMM-reduced columns with exact range masses, the
// mean of EstimateBatchSeeded over many seeds matches exact enumeration of
// the same model within a Bonferroni-corrected z-bound. The negative
// control turns the §5.2 correction off (Uncorrected): the same check must
// then fail against the corrected model's enumeration.
func TestEstimateUnbiasedAgainstEnumeration(t *testing.T) {
	m, qs := unbiasedFixture(t)
	exact := exactAnswers(t, m, qs)

	biased, spread := biasedQueries(t, m, qs, exact)
	if len(biased) > 0 {
		t.Fatalf("corrected estimates are biased:\n%v", biased)
	}
	if spread < len(qs)/2 {
		t.Fatalf("only %d of %d queries varied across seeds; the check is near-vacuous", spread, len(qs))
	}

	m.mu.Lock()
	m.cfg.Uncorrected = true
	m.massDirty = true
	m.mu.Unlock()
	if biased, _ := biasedQueries(t, m, qs, exact); len(biased) == 0 {
		t.Fatal("uncorrected estimates passed the unbiasedness check; it cannot detect a missing §5.2 correction")
	}
}

// TestStderrCoverage checks that the sampling variance EstimateBatchVarSeeded
// reports — the only variance the library publishes, and what the sharded
// early stop reads — gives calibrated error bars at the default S: over
// unbiasedFixture's queries, each estimated with unbiasedSeeds explicit
// seeds, the nominal 95 % interval est ± 1.96·√var covers the exact
// (enumerated) answer at least as often as a one-sided α = 1e-3 binomial
// test of 95 % coverage allows (normal approximation). Only pairs with
// sampling spread count toward coverage. A pair whose standard error is
// below 1e-12 of the estimate must be one whose paths all share one
// probability: its variance must be exactly 0 and its estimate must match
// enumeration to 1e-12 relative. At S = 64 the coverage check fails on
// this fixture (1111 of 1200 pairs against a floor of 1117); ROADMAP item 2
// holds that case.
func TestStderrCoverage(t *testing.T) {
	m, qs := unbiasedFixture(t)
	exact := exactAnswers(t, m, qs)
	var def Config
	def.fillDefaults()
	m.cfg.NumSamples = def.NumSamples

	const nominal, alpha = 0.95, 1e-3
	seeds := make([]int64, len(qs))
	pairs, covered, zero := 0, 0, 0
	for k := 0; k < unbiasedSeeds; k++ {
		for i := range seeds {
			seeds[i] = int64(1_000_003*k + i + 1)
		}
		ests, vars, err := m.EstimateBatchVarSeeded(qs, seeds)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vars {
			se := math.Sqrt(v)
			if se <= 1e-12*ests[i] {
				if v != 0 || math.Abs(ests[i]-exact[i]) > 1e-12*exact[i] {
					t.Fatalf("query %d seed %d: stderr %v ≤ 1e-12·est: want variance exactly 0 and est %v within 1e-12 of the exact %v",
						i, seeds[i], se, ests[i], exact[i])
				}
				zero++
				continue
			}
			pairs++
			if math.Abs(ests[i]-exact[i]) <= 1.96*se {
				covered++
			}
		}
	}
	if pairs < len(qs)/2*unbiasedSeeds {
		t.Fatalf("only %d (query, seed) pairs have sampling spread; the check is near-vacuous", pairs)
	}
	n := float64(pairs)
	z := math.Sqrt2 * math.Erfcinv(2*alpha)
	floor := math.Ceil(n*nominal - z*math.Sqrt(n*nominal*(1-nominal)))
	t.Logf("S=%d: %d of %d intervals cover the exact answer (floor %v); %d zero-variance pairs match it",
		def.NumSamples, covered, pairs, floor, zero)
	if float64(covered) < floor {
		t.Fatalf("S=%d: est ± 1.96·√var covers the exact answer in %d of %d pairs, below the α=%v floor %v for %v coverage",
			def.NumSamples, covered, pairs, alpha, floor, nominal)
	}
}
