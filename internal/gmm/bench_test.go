package gmm

import (
	"context"
	"math/rand"
	"testing"
)

func benchData(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	return twoClusterData(n, rng)
}

func BenchmarkFitEM(b *testing.B) {
	xs := benchData(10000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FitEM(xs, 30, 20, rng)
	}
}

func BenchmarkFitSGD(b *testing.B) {
	xs := benchData(10000)
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FitSGD(context.Background(), xs, 30, 2, 256, 0.02, rng)
	}
}

func BenchmarkAssign(b *testing.B) {
	xs := benchData(10000)
	rng := rand.New(rand.NewSource(4))
	m, _, _ := FitEM(xs, 30, 10, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Assign(xs[i%len(xs)])
	}
}

func BenchmarkRangeMassMC(b *testing.B) {
	xs := benchData(10000)
	rng := rand.New(rand.NewSource(5))
	m, _, _ := FitEM(xs, 30, 10, rng)
	rs := NewRangeSampler(10000, rng)
	out := make([]float64, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Mass(m, -3, 3, out)
	}
}

// BenchmarkNewRangeSampler is the §5.2 preprocessing of one GMM column at
// the paper's S = 10,000: one sorted standard-normal set serves all K = 30
// components.
func BenchmarkNewRangeSampler(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewRangeSampler(10000, rng)
	}
}

func BenchmarkRangeMassExact(b *testing.B) {
	xs := benchData(10000)
	rng := rand.New(rand.NewSource(6))
	m, _, _ := FitEM(xs, 30, 10, rng)
	out := make([]float64, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RangeMassExact(-3, 3, out)
	}
}
