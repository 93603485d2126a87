package dataset_test

import (
	"math"
	"testing"

	"iam/internal/dataset"
	"iam/internal/query"
)

// TestRangeToCodesMatchesContains checks RangeToCodes against the query
// semantics it implements: code k is in the returned range iff
// query.Interval.Contains holds for k's raw value. The bounds include ±Inf,
// values far outside int64 (±1e300) and just past it (±1e19), and exact
// domain values, each with open and closed ends, on a categorical and a
// continuous encoder. A NaN bound has no meaning on either side, so it is
// an error rather than an unbounded or an empty side.
func TestRangeToCodesMatchesContains(t *testing.T) {
	cat := dataset.BuildEncoder(&dataset.Column{Name: "c", Kind: dataset.Categorical, Card: 5})
	cont := dataset.BuildEncoder(&dataset.Column{Name: "v", Kind: dataset.Continuous, Floats: []float64{-2.5, 0, 1, 3, 4.5}})
	bounds := []float64{
		math.Inf(-1), -math.MaxFloat64, -1e300, -1e19, -2.5, -1, -0.5, 0, 0.5,
		1, 3, 4, 4.5, 5, 1e19, 1e300, math.MaxFloat64, math.Inf(1), math.NaN(),
	}
	for _, e := range []*dataset.ColumnEncoder{cat, cont} {
		value := func(k int) float64 {
			if e.Kind == dataset.Categorical {
				return float64(k)
			}
			return e.DecodeFloat(k)
		}
		for _, lo := range bounds {
			for _, hi := range bounds {
				for _, loInc := range []bool{false, true} {
					for _, hiInc := range []bool{false, true} {
						iv := query.Interval{Lo: lo, Hi: hi, LoInc: loInc, HiInc: hiInc}
						loCode, hiCode, ok, err := e.RangeToCodes(lo, hi, loInc, hiInc)
						if nan := math.IsNaN(lo) || math.IsNaN(hi); nan || err != nil {
							if !nan || err == nil {
								t.Fatalf("%s %+v: error %v", e.Name, iv, err)
							}
							continue
						}
						for k := 0; k < e.Card; k++ {
							got := ok && loCode <= k && k <= hiCode
							if want := iv.Contains(value(k)); got != want {
								t.Fatalf("%s %+v: code %d in (%d, %d, %v) = %v, Contains(%v) = %v",
									e.Name, iv, k, loCode, hiCode, ok, got, value(k), want)
							}
						}
						if ok && (loCode < 0 || hiCode >= e.Card || loCode > hiCode) {
							t.Fatalf("%s %+v: range (%d, %d) outside [0, %d)", e.Name, iv, loCode, hiCode, e.Card)
						}
					}
				}
			}
		}
	}
}
