package join

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"iam/internal/pghist"
	"iam/internal/query"
	"iam/internal/spn"
	"iam/internal/testutil"
)

func TestMSCNJoinBatchMatchesSingle(t *testing.T) {
	s := testSchema(t)
	train, err := s.GenerateWorkload(GenJoinConfig{NumQueries: 150, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMSCNJoin(s, train, MSCNJoinConfig{Epochs: 5, Samples: 80, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	test, err := s.GenerateWorkload(GenJoinConfig{NumQueries: 20, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := m.EstimateCardBatch(test.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, jq := range test.Queries {
		single, err := m.EstimateCard(jq)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(batch[i]-single) > 1e-6*(1+single) {
			t.Fatalf("query %d: batch %v vs single %v", i, batch[i], single)
		}
	}
}

func TestARJoinBatchMatchesSingle(t *testing.T) {
	s := testSchema(t)
	cfg := smallARCfg()
	cfg.Epochs = 4
	m, err := TrainIAMJoin(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.GenerateWorkload(GenJoinConfig{NumQueries: 6, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := m.EstimateCardBatch(w.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i, jq := range w.Queries {
		single, err := m.EstimateCard(jq)
		if err != nil {
			t.Fatal(err)
		}
		// Both are Monte-Carlo; tolerate sampling spread.
		hi := math.Max(batch[i], single)
		lo := math.Min(batch[i], single)
		if hi > 3*lo+30 {
			t.Fatalf("query %d: batch %v vs single %v", i, batch[i], single)
		}
	}
}

func TestSPNJoinFullJoinCard(t *testing.T) {
	s := testSchema(t)
	m, err := NewSPNJoin(s, 8000, spn.Config{Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	// Predicate-free full inner join: estimate must land near the exact
	// inner-join size.
	jq := &JoinQuery{
		Root: query.NewQuery(s.Root),
		Children: map[string]*query.Query{
			"movie_info": query.NewQuery(s.Children[0].Table),
			"cast_info":  query.NewQuery(s.Children[1].Table),
		},
	}
	got, err := m.EstimateCard(jq)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := s.ExactCard(jq)
	if err != nil {
		t.Fatal(err)
	}
	if got < truth/2 || got > truth*2 {
		t.Fatalf("SPN full-join card %v vs exact %v", got, truth)
	}
}

func TestUAEQJoinTrains(t *testing.T) {
	s := testSchema(t)
	train, err := s.GenerateWorkload(GenJoinConfig{NumQueries: 40, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallARCfg()
	m, err := TrainUAEQJoin(s, train, cfg, 3, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "UAE-Q" {
		t.Fatalf("name %q", m.Name())
	}
	// Produces sane cardinalities.
	for _, jq := range train.Queries[:10] {
		est, err := m.EstimateCard(jq)
		if err != nil {
			t.Fatal(err)
		}
		if est < 0 || math.IsNaN(est) || est > 10*m.JoinSize() {
			t.Fatalf("estimate %v out of range", est)
		}
	}
}

// TestSameSeedBitIdentical: workload generation, join sampling, GMM
// initialization, query training and the per-query sampling seeds of the
// AR join model, and MSCN's sample and weights, all derive from their
// configured seeds alone, and PGJoin and MSCNJoin answer a multi-child
// query with one bit pattern on every call.
func TestSameSeedBitIdentical(t *testing.T) {
	s := testSchema(t)
	gen := func(seed int64, n int) *JoinWorkload {
		w, err := s.GenerateWorkload(GenJoinConfig{NumQueries: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	t.Run("workload", func(t *testing.T) {
		testutil.SameSeedTwice(t, func() []float64 { return gen(40, 12).Cards })
	})
	train, test := gen(41, 12), gen(42, 12)
	t.Run("IAM", func(t *testing.T) {
		testutil.SameSeedTwice(t, func() []float64 {
			m, err := TrainIAMJoin(s, ARJoinConfig{
				SampleRows: 1000, GMMThreshold: 50, Components: 4, Hidden: []int{16, 16},
				EmbedDim: 8, Epochs: 1, NumSamples: 32, GMMSamples: 200, Seed: 43,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.QueryTrain(context.Background(), train, 1, 4, 0, 16); err != nil {
				t.Fatal(err)
			}
			ests, err := m.EstimateCardBatch(test.Queries)
			if err != nil {
				t.Fatal(err)
			}
			return ests
		})
	})
	t.Run("repeat", func(t *testing.T) {
		// PGJoin multiplies per-child factors into one product and MSCNJoin
		// sums per-predicate features into one pool; float arithmetic is
		// not associative, so either one walking a query's children in map
		// order would answer repeated calls with different last bits.
		pg, err := NewPGJoin(s, pghist.Config{})
		if err != nil {
			t.Fatal(err)
		}
		mscn, err := NewMSCNJoin(s, train, MSCNJoinConfig{Hidden: 16, PoolDim: 8, Samples: 40, Epochs: 1, BatchSize: 4, Seed: 44})
		if err != nil {
			t.Fatal(err)
		}
		multi := 0
		for _, jq := range gen(45, 80).Queries {
			if len(jq.Children) < 2 {
				continue
			}
			multi++
			for _, m := range []CardEstimator{pg, mscn} {
				first, err := m.EstimateCard(jq)
				if err != nil {
					t.Fatal(err)
				}
				for rep := 0; rep < 50; rep++ {
					got, err := m.EstimateCard(jq)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(first) {
						t.Fatalf("%s on %v: call %d gave %v, the first call %v", m.Name(), jq.Tables(s), rep+1, got, first)
					}
				}
			}
		}
		if multi < 10 {
			t.Fatalf("only %d queries join two or more children", multi)
		}
	})
	t.Run("MSCN", func(t *testing.T) {
		testutil.SameSeedTwice(t, func() []float64 {
			m, err := NewMSCNJoin(s, train, MSCNJoinConfig{Hidden: 16, PoolDim: 8, Samples: 40, Epochs: 1, BatchSize: 4, Seed: 44})
			if err != nil {
				t.Fatal(err)
			}
			ests, err := m.EstimateCardBatch(test.Queries)
			if err != nil {
				t.Fatal(err)
			}
			return ests
		})
	})
}

// TestConcurrentEstimateCardBatch: EstimateCardBatch shares one session,
// scratch and seed stream across callers, so concurrent calls must
// serialize on the model's lock. Run under -race.
func TestConcurrentEstimateCardBatch(t *testing.T) {
	m, s := smallIAMJoin(t)
	w, err := s.GenerateWorkload(GenJoinConfig{NumQueries: 4, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				ests, err := m.EstimateCardBatch(w.Queries)
				if err != nil {
					errs <- err
					return
				}
				for _, e := range ests {
					if !(e >= 0) || math.IsInf(e, 0) {
						errs <- fmt.Errorf("cardinality %v is not finite and non-negative", e)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
