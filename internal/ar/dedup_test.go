package ar

import (
	"math"
	"math/rand"
	"testing"

	"iam/internal/nn"
)

// prefixGate admits the codes [Lo, Hi] when the sampled code of column Col
// is even and nothing otherwise, so a query loses some of its samples
// mid-way — the ones whose prefix holds an odd code.
type prefixGate struct{ Col, Lo, Hi int }

func (g prefixGate) Fill(prev []int, w []float64) {
	open := prev[g.Col]%2 == 0
	for k := range w {
		if open && k >= g.Lo && k <= g.Hi {
			w[k] = 1
		} else {
			w[k] = 0
		}
	}
}

// dedupModel is a 4-column model whose first two columns are the subcolumns
// of one factored column, so every constraint kind applies somewhere.
func dedupModel(t *testing.T) (*Model, FactoredConstraint) {
	t.Helper()
	spec := mustSpec(t, 30, 6)
	if len(spec.Bases) != 2 {
		t.Fatalf("bases = %v, want 2 subcolumns", spec.Bases)
	}
	m := freshModel(t, []int{spec.Bases[0], spec.Bases[1], 4, 7})
	return m, FactoredConstraint{Spec: spec, FirstCol: 0}
}

// randomQuery draws a constraint list for the wildcard pattern live (bit c
// set = column c constrained), mixing every constraint kind.
func randomQuery(rng *rand.Rand, m *Model, fc FactoredConstraint, live int) []Constraint {
	cons := make([]Constraint, len(m.Cards))
	if live&3 != 0 {
		// The factored column: both subcolumns share one code range.
		lo, hi := rng.Intn(fc.Spec.Card), rng.Intn(fc.Spec.Card)
		if lo > hi {
			lo, hi = hi, lo
		}
		for p := 0; p < 2; p++ {
			if live&(1<<p) == 0 {
				continue
			}
			f := fc
			f.Part, f.Lo, f.Hi = p, lo, hi
			cons[p] = f
		}
	}
	for c := 2; c < len(m.Cards); c++ {
		if live&(1<<c) == 0 {
			continue
		}
		card := m.Cards[c]
		switch rng.Intn(8) {
		case 0:
			cons[c] = EmptyConstraint{}
		case 1, 2:
			cons[c] = prefixGate{Col: rng.Intn(c), Lo: rng.Intn(card), Hi: card - 1}
		case 3, 4:
			w := make([]float64, card)
			for k := range w {
				if rng.Intn(3) > 0 {
					w[k] = rng.Float64()
				}
			}
			cons[c] = WeightConstraint{W: w}
		default:
			lo, hi := rng.Intn(card), rng.Intn(card)
			if lo > hi {
				lo, hi = hi, lo
			}
			cons[c] = RangeConstraint{Lo: lo, Hi: hi}
		}
	}
	return cons
}

// runBoth runs one batch through the seeded estimate path and returns the
// per-query-seed estimates, their variances and the rows forwarded.
func runBoth(t *testing.T, m *Model, sess *nn.Session, consList [][]Constraint, ns int, seed int64) (est, vars []float64, fwd int) {
	t.Helper()
	seeds := make([]int64, len(consList))
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	sc := NewEstimateScratch()
	before := sess.ForwardedRows()
	e, err := m.EstimateBatchScratch(sess, sc, consList, ns, seeds)
	if err != nil {
		t.Fatal(err)
	}
	fwd = sess.ForwardedRows() - before
	est = append([]float64(nil), e...)
	vars = append([]float64(nil), sc.Variances()...)
	return est, vars, fwd
}

// TestPrefixDedupBitIdentical pins prefix deduplication as invisible in the
// answers: with dedup on and off, every estimate and variance has the same
// bits — over every wildcard pattern of
// a 4-column model, random mixed batches with several signature groups,
// every constraint kind, and samples dying mid-way.
func TestPrefixDedupBitIdentical(t *testing.T) {
	m, fc := dedupModel(t)
	const ns = 48
	rng := rand.New(rand.NewSource(31))

	var batches [][][]Constraint
	for live := 0; live < 16; live++ {
		batch := make([][]Constraint, 4)
		for i := range batch {
			batch[i] = randomQuery(rng, m, fc, live)
		}
		batches = append(batches, batch)
	}
	for b := 0; b < 6; b++ {
		batch := make([][]Constraint, 12)
		for i := range batch {
			batch[i] = randomQuery(rng, m, fc, rng.Intn(16))
		}
		batches = append(batches, batch)
	}
	sess := m.Net.NewSession(12 * ns)

	defer func(prev bool) { prefixDedup = prev }(prefixDedup)
	var fwdOn, fwdOff int
	for bi, batch := range batches {
		seed := int64(1000 + 100*bi)
		prefixDedup = true
		est, vars, on := runBoth(t, m, sess, batch, ns, seed)
		prefixDedup = false
		wantEst, wantVars, off := runBoth(t, m, sess, batch, ns, seed)
		fwdOn, fwdOff = fwdOn+on, fwdOff+off
		for qi := range batch {
			for _, p := range [][2]float64{{est[qi], wantEst[qi]}, {vars[qi], wantVars[qi]}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("batch %d query %d: dedup on %v, off %v (estimate, variance: %v/%v, %v/%v)",
						bi, qi, p[0], p[1], est[qi], wantEst[qi], vars[qi], wantVars[qi])
				}
			}
		}
	}
	// Not vacuous: the domains are small, so dedup must save forwards.
	if fwdOn*4 > fwdOff {
		t.Fatalf("dedup forwarded %d rows against %d without it; expected far fewer", fwdOn, fwdOff)
	}
}
