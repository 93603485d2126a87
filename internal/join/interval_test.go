package join

import (
	"math"
	"sync"
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
)

var (
	ivOnce   sync.Once
	ivModel  *ARJoin
	ivSchema *Schema
	ivErr    error
)

// smallIAMJoin trains one small IAM-mode join model over SynthIMDB(600),
// shared by the interval tests and the fuzz target. GMMThreshold 50 makes
// title's latitude and longitude GMM-reduced; kind and production_year stay
// coded.
func smallIAMJoin(tb testing.TB) (*ARJoin, *Schema) {
	tb.Helper()
	ivOnce.Do(func() {
		ivSchema = NewIMDBSchema(dataset.SynthIMDB(600, 1))
		ivModel, ivErr = TrainIAMJoin(ivSchema, ARJoinConfig{
			SampleRows: 2000, GMMThreshold: 50, Components: 8, Hidden: []int{16, 16},
			EmbedDim: 8, Epochs: 1, NumSamples: 32, GMMSamples: 500, Seed: 1,
		})
	})
	if ivErr != nil {
		tb.Fatal(ivErr)
	}
	return ivModel, ivSchema
}

// rootQuery is a join query over the root table alone with one interval on
// root column ci.
func rootQuery(s *Schema, ci int, iv query.Interval) *JoinQuery {
	q := query.NewQuery(s.Root)
	q.Ranges[ci] = &iv
	return &JoinQuery{Root: q, Children: map[string]*query.Query{}}
}

// TestARJoinNaNBoundIsError: a NaN endpoint on a GMM-reduced column must be
// an error, as it is on coded columns. NaN compares false against every
// value, so range masses built from it answer [NaN, +Inf] with 0 and
// [-Inf, NaN] with the whole table.
func TestARJoinNaNBoundIsError(t *testing.T) {
	e, s := smallIAMJoin(t)
	for _, name := range []string{"latitude", "longitude"} {
		ci := s.Root.ColumnIndex(name)
		if e.cols[e.flat.FlatIndex(s.Root.Name, ci)].gm == nil {
			t.Fatalf("test premise broken: %s is not GMM-reduced", name)
		}
		for _, iv := range []query.Interval{
			{Lo: math.NaN(), Hi: math.Inf(1), LoInc: true, HiInc: true},
			{Lo: math.Inf(-1), Hi: math.NaN(), LoInc: true, HiInc: true},
		} {
			if est, err := e.EstimateCard(rootQuery(s, ci, iv)); err == nil {
				t.Errorf("%s in [%v, %v]: estimate %v, want an error", name, iv.Lo, iv.Hi, est)
			}
		}
	}
}

// FuzzARJoinEstimate drives arbitrary intervals on one root column through
// ARJoin's constraint build and progressive sampling. It must never panic;
// it fails iff an endpoint is NaN; every estimate is finite and ≥ 0; and an
// interval no value satisfies (inverted, or a point with an open end) gives
// exactly 0. The seed corpus (testdata/fuzz/FuzzARJoinEstimate) holds NaN on
// each side, inverted bounds, ±Inf, ±MaxFloat64 and x > v AND x < v.
func FuzzARJoinEstimate(f *testing.F) {
	f.Fuzz(func(t *testing.T, col uint8, lo, hi float64, loInc, hiInc bool) {
		e, s := smallIAMJoin(t)
		ci := int(col) % s.Root.NumCols()
		iv := query.Interval{Lo: lo, Hi: hi, LoInc: loInc, HiInc: hiInc}
		est, err := e.EstimateCard(rootQuery(s, ci, iv))
		if math.IsNaN(lo) || math.IsNaN(hi) {
			if err == nil {
				t.Fatalf("column %d %+v: NaN bound accepted, estimate %v", ci, iv, est)
			}
			return
		}
		if err != nil {
			t.Fatalf("column %d %+v: %v", ci, iv, err)
		}
		if math.IsInf(est, 0) || !(est >= 0) {
			t.Fatalf("column %d %+v: estimate %v", ci, iv, est)
		}
		if (lo > hi || lo == hi && !(loInc && hiInc)) && est != 0 {
			t.Fatalf("column %d %+v: empty interval estimates %v, want 0", ci, iv, est)
		}
	})
}
