package ar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"iam/internal/vecmath"
)

// TestEstimatesAlwaysProbabilities: every random constraint combination on
// a trained model yields an estimate in [0, 1].
func TestEstimatesAlwaysProbabilities(t *testing.T) {
	m, _ := trainedModel(t)
	sess := m.Net.NewSession(128)
	rng := rand.New(rand.NewSource(99))
	f := func(a, b, c, d uint8, skipMask uint8) bool {
		cons := make([]Constraint, 3)
		bounds := [][2]int{
			{int(a) % 4, int(b) % 4},
			{int(c) % 4, int(d) % 4},
			{int(a^c) % 5, int(b^d) % 5},
		}
		for i := range cons {
			if skipMask&(1<<i) != 0 {
				continue // wildcard
			}
			lo, hi := bounds[i][0], bounds[i][1]
			if lo > hi {
				lo, hi = hi, lo
			}
			cons[i] = RangeConstraint{Lo: lo, Hi: hi}
		}
		v := est(t, m, sess, cons, 128, rng.Int63())
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestAllWildcardIsOne: a query with no constraints estimates exactly 1.
func TestAllWildcardIsOne(t *testing.T) {
	m, _ := trainedModel(t)
	sess := m.Net.NewSession(16)
	if got := est(t, m, sess, make([]Constraint, 3), 16, 100); got != 1 {
		t.Fatalf("all-wildcard estimate %v, want exactly 1", got)
	}
}

// TestMonotoneUnderRangeWidening: widening a range cannot decrease the
// exact model probability (checked via enumeration, which is deterministic).
func TestMonotoneUnderRangeWidening(t *testing.T) {
	m, _ := trainedModel(t)
	narrow := exactModelProb(m, [][2]int{{1, 1}, {0, 3}, {0, 4}})
	wide := exactModelProb(m, [][2]int{{0, 2}, {0, 3}, {0, 4}})
	if narrow > wide {
		t.Fatalf("model probability not monotone: narrow %v > wide %v", narrow, wide)
	}
}

// TestTrainQueryStepReducesLoss: repeated query steps on a fixed query
// batch reduce the squared log error.
func TestTrainQueryStepReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	m, err := New([]int{6, 6}, []int{24, 24}, 8, 102)
	if err != nil {
		t.Fatal(err)
	}
	cons := [][]Constraint{
		{RangeConstraint{0, 1}, RangeConstraint{0, 2}},
		{RangeConstraint{3, 5}, nil},
	}
	targets := []float64{0.3, 0.15}
	sess := m.Net.NewSession(2 * 64)
	outDim := 0
	for _, c := range m.Cards {
		outDim += c
	}
	dl := vecmath.NewMatrix(2*64, outDim)
	first, err := m.TrainQueryStep(sess, cons, targets, 64, 5e-3, rng, dl)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 60; i++ {
		if last, err = m.TrainQueryStep(sess, cons, targets, 64, 5e-3, rng, dl); err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("query loss did not decrease: %v -> %v", first, last)
	}
}
