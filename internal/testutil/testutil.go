// Package testutil holds shared helpers for this module's tests. It exists
// because library packages must not panic (the nopanic invariant): instead
// of a panicking MustGenerate in internal/query, tests route generation
// failures through testing.TB.Fatal.
package testutil

import (
	"math"
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
)

// Workload generates a random workload over t and fails the test on error.
// It replaces the former query.MustGenerate for test code.
func Workload(tb testing.TB, t *dataset.Table, cfg query.GenConfig) *query.Workload {
	tb.Helper()
	w, err := query.Generate(t, cfg)
	if err != nil {
		tb.Fatalf("generating workload: %v", err)
	}
	return w
}

// SameSeedTwice calls run twice and fails the test unless both calls return
// bit-identical values. run builds whatever it measures from fixed seeds, so
// a random stream seeded from anything else (the clock, a global source)
// shows up as a difference.
func SameSeedTwice(tb testing.TB, run func() []float64) {
	tb.Helper()
	a, b := run(), run()
	if len(a) != len(b) {
		tb.Fatalf("same seed gave %d values, then %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			tb.Fatalf("value %d: %v, then %v from the same seed", i, a[i], b[i])
		}
	}
}

// Estimates answers qs one at a time with e and fails the test on an error.
func Estimates(tb testing.TB, e interface {
	Estimate(*query.Query) (float64, error)
}, qs []*query.Query) []float64 {
	tb.Helper()
	out := make([]float64, len(qs))
	for i, q := range qs {
		est, err := e.Estimate(q)
		if err != nil {
			tb.Fatalf("query %d: %v", i, err)
		}
		out[i] = est
	}
	return out
}
