package core

import (
	"math"
	"sync"
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
)

var (
	wisdmOnce  sync.Once
	wisdmModel *Model
	wisdmTable *dataset.Table
	wisdmErr   error
)

// smallWISDM trains one small model over SynthWISDM(3000), shared by the
// interval tests and the fuzz target: two categorical columns (subject_id,
// activity_code) and three GMM-reduced continuous ones.
func smallWISDM(tb testing.TB) (*Model, *dataset.Table) {
	tb.Helper()
	wisdmOnce.Do(func() {
		wisdmTable = dataset.SynthWISDM(3000, 13)
		cfg := fastCfg()
		cfg.Epochs = 2
		cfg.NumSamples = 64
		wisdmModel, wisdmErr = Train(wisdmTable, cfg)
	})
	if wisdmErr != nil {
		tb.Fatal(wisdmErr)
	}
	return wisdmModel, wisdmTable
}

// TestCategoricalBoundsBeyondInt: bounds outside the int range on a
// categorical column are compared as floats, never converted; before, 1e300
// and +Inf wrapped to MinInt64 and admitted every code, and 1e19 wrapped to
// admit none.
func TestCategoricalBoundsBeyondInt(t *testing.T) {
	m, tb := smallWISDM(t)
	cases := []struct {
		sql  string
		want float64 // exact selectivity
	}{
		{"subject_id >= 1e300", 0},
		{"subject_id >= Inf", 0},
		{"subject_id > 1e19", 0},
		{"subject_id <= -1e300", 0},
		{"subject_id <= 1e19", 1},
		{"subject_id >= -1e300", 1},
	}
	for _, c := range cases {
		q, err := query.Parse(tb, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if truth := query.Exec(q); truth != c.want {
			t.Fatalf("%s: truth %v, test premise wants %v", c.sql, truth, c.want)
		}
		est, err := m.Estimate(q)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if c.want == 0 && est != 0 {
			t.Errorf("%s: estimate %v, want exactly 0", c.sql, est)
		}
		if c.want == 1 && math.Abs(est-1) > 1e-9 {
			t.Errorf("%s: estimate %v, want 1", c.sql, est)
		}
	}
}

// FuzzEstimate drives arbitrary single-column intervals through the full
// estimate path (constraint build, mass weights or ordinal codes,
// progressive sampling). Only a NaN endpoint may fail; every answer lies in
// [0, 1], Estimate and EstimateBatchVarSeeded agree bit for bit with a
// finite, non-negative variance, and on a categorical column the estimate
// is exactly 0 iff no code satisfies the interval. The seed corpus (testdata/fuzz/FuzzEstimate) holds the bounds
// that once answered wrongly — ±Inf, 1e300 and 1e19 on subject_id, NaN on
// either side — plus inverted intervals and ±MaxFloat64.
func FuzzEstimate(f *testing.F) {
	f.Fuzz(func(t *testing.T, col uint8, lo, hi float64, loInc, hiInc bool) {
		m, tb := smallWISDM(t)
		ci := int(col) % tb.NumCols()
		iv := query.Interval{Lo: lo, Hi: hi, LoInc: loInc, HiInc: hiInc}
		q := query.NewQuery(tb)
		q.Ranges[ci] = &iv
		nan := math.IsNaN(lo) || math.IsNaN(hi)

		est, err := m.Estimate(q)
		ciEsts, ciVars, ciErr := m.EstimateBatchVarSeeded([]*query.Query{q}, nil)
		if nan {
			if err == nil || ciErr == nil {
				t.Fatalf("column %d %+v: NaN bound accepted (%v, %v)", ci, iv, err, ciErr)
			}
			return
		}
		if err != nil || ciErr != nil {
			t.Fatalf("column %d %+v: %v, %v", ci, iv, err, ciErr)
		}
		if !(est >= 0 && est <= 1) {
			t.Fatalf("column %d %+v: estimate %v outside [0, 1]", ci, iv, est)
		}
		if math.Float64bits(est) != math.Float64bits(ciEsts[0]) {
			t.Fatalf("column %d %+v: Estimate %v != EstimateBatchVarSeeded %v", ci, iv, est, ciEsts[0])
		}
		if !(ciVars[0] >= 0) || math.IsInf(ciVars[0], 0) {
			t.Fatalf("column %d %+v: variance %v, want finite and >= 0", ci, iv, ciVars[0])
		}
		if c := tb.Columns[ci]; c.Kind == dataset.Categorical {
			admits := false
			for k := 0; k < c.Card && !admits; k++ {
				admits = iv.Contains(float64(k))
			}
			if admits != (est != 0) {
				t.Fatalf("column %d %+v: some code satisfies = %v, estimate %v", ci, iv, admits, est)
			}
		}
	})
}
