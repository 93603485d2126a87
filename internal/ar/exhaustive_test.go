package ar

import (
	"math"
	"testing"
)

func TestExhaustiveMatchesEnumeration(t *testing.T) {
	m, _ := trainedModel(t)
	cases := [][][2]int{
		{{1, 2}, {0, 3}, {2, 4}},
		{{0, 0}, {1, 1}, {0, 4}},
		{{0, 3}, {0, 3}, {0, 4}},
	}
	for ci, ranges := range cases {
		want := exactModelProb(m, ranges)
		cons := make([]Constraint, 3)
		for i, r := range ranges {
			cons[i] = RangeConstraint{Lo: r[0], Hi: r[1]}
		}
		got, ok := m.EstimateExhaustive(cons, 10000)
		if !ok {
			t.Fatalf("case %d: unexpectedly infeasible", ci)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("case %d: exhaustive %v vs enumeration %v", ci, got, want)
		}
	}
}

func TestExhaustiveWildcards(t *testing.T) {
	m, rows := trainedModel(t)
	// Only the middle column queried: compare against data frequency.
	cons := []Constraint{nil, RangeConstraint{0, 1}, nil}
	got, ok := m.EstimateExhaustive(cons, 10000)
	if !ok {
		t.Fatal("infeasible")
	}
	count := 0
	for _, r := range rows {
		if r[1] <= 1 {
			count++
		}
	}
	want := float64(count) / float64(len(rows))
	if math.Abs(got-want) > 0.06 {
		t.Fatalf("exhaustive %v vs data %v", got, want)
	}
	// No constraints at all → exactly 1.
	got, ok = m.EstimateExhaustive(make([]Constraint, 3), 10)
	if !ok || got != 1 {
		t.Fatalf("unconstrained: %v %v", got, ok)
	}
}

func TestExhaustiveRespectsLimit(t *testing.T) {
	m, _ := trainedModel(t)
	cons := []Constraint{
		RangeConstraint{0, 3}, RangeConstraint{0, 3}, RangeConstraint{0, 4},
	}
	if _, ok := m.EstimateExhaustive(cons, 2); ok {
		t.Fatal("expected infeasibility under a tiny limit")
	}
}

func TestExhaustiveAgreesWithSampling(t *testing.T) {
	// Exhaustive is the zero-variance limit of progressive sampling: a
	// large sampling run must agree within Monte-Carlo error.
	m, _ := trainedModel(t)
	cons := []Constraint{
		RangeConstraint{1, 3}, nil, RangeConstraint{1, 3},
	}
	exact, ok := m.EstimateExhaustive(cons, 10000)
	if !ok {
		t.Fatal("infeasible")
	}
	sess := m.Net.NewSession(4000)
	sampled := est(t, m, sess, cons, 4000, 9)
	if math.Abs(exact-sampled) > 0.02+0.05*exact {
		t.Fatalf("exhaustive %v vs sampled %v", exact, sampled)
	}
}

func TestExhaustiveEmptyConstraint(t *testing.T) {
	m, _ := trainedModel(t)
	cons := []Constraint{EmptyConstraint{}, nil, nil}
	got, ok := m.EstimateExhaustive(cons, 100)
	if !ok || got != 0 {
		t.Fatalf("empty constraint: got %v ok=%v", got, ok)
	}
}
