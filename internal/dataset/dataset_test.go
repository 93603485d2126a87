package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSynthWISDMShape(t *testing.T) {
	tb := SynthWISDM(5000, 1)
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 5000 || tb.NumCols() != 5 {
		t.Fatalf("rows=%d cols=%d", tb.NumRows(), tb.NumCols())
	}
	st := Describe(tb)
	if st.ColsCat != 2 || st.ColsCon != 3 {
		t.Fatalf("cat=%d con=%d, want 2/3", st.ColsCat, st.ColsCon)
	}
	// Continuous domains must be large enough to trigger GMM reduction.
	for _, name := range []string{"x", "y", "z"} {
		if d := tb.Column(name).DistinctCount(); d < 1000 {
			t.Fatalf("column %s distinct=%d, want >1000", name, d)
		}
	}
}

func TestSynthTWIShape(t *testing.T) {
	tb := SynthTWI(5000, 2)
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if tb.NumCols() != 2 {
		t.Fatalf("cols=%d", tb.NumCols())
	}
	lo, hi, err := tb.Column("latitude").MinMax()
	if err != nil {
		t.Fatal(err)
	}
	if lo < 15 || hi > 60 {
		t.Fatalf("latitude range [%v,%v] implausible", lo, hi)
	}
}

func TestSynthHIGGSSkewAndWeakCorrelation(t *testing.T) {
	tb := SynthHIGGS(8000, 3)
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	if tb.NumCols() != 7 {
		t.Fatalf("cols=%d", tb.NumCols())
	}
	_, maxSkew := FisherSkewness(tb)
	if maxSkew < 3 {
		t.Fatalf("HIGGS max skew = %v, want strong right skew", maxSkew)
	}
}

func TestNCIEOrdering(t *testing.T) {
	// The paper reports WISDM/TWI strongly correlated (low NCIE) and HIGGS
	// weakly correlated (high NCIE); our synthetic data must reproduce the
	// ordering.
	wisdm := NCIE(SynthWISDM(6000, 4), 0)
	twi := NCIE(SynthTWI(6000, 4), 0)
	higgs := NCIE(SynthHIGGS(6000, 4), 0)
	if !(wisdm < higgs) || !(twi < higgs) {
		t.Fatalf("NCIE ordering violated: wisdm=%.3f twi=%.3f higgs=%.3f", wisdm, twi, higgs)
	}
	for name, v := range map[string]float64{"wisdm": wisdm, "twi": twi, "higgs": higgs} {
		if v < 0 || v > 1 {
			t.Fatalf("NCIE(%s)=%v out of [0,1]", name, v)
		}
	}
}

func TestNCIEIndependentNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 4000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	tb := &Table{Name: "ind", Columns: []*Column{
		{Name: "a", Kind: Continuous, Floats: a},
		{Name: "b", Kind: Continuous, Floats: b},
	}}
	if v := NCIE(tb, 0); v < 0.85 {
		t.Fatalf("NCIE of independent data = %v, want near 1", v)
	}
}

func TestNCIEPerfectlyCorrelatedNearZero(t *testing.T) {
	n := 4000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = float64(i) * 0.37
		b[i] = a[i]*a[i] + 5 // nonlinear but deterministic
	}
	tb := &Table{Name: "dep", Columns: []*Column{
		{Name: "a", Kind: Continuous, Floats: a},
		{Name: "b", Kind: Continuous, Floats: b},
	}}
	if v := NCIE(tb, 0); v > 0.3 {
		t.Fatalf("NCIE of dependent data = %v, want near 0", v)
	}
}

func TestFisherSkewSymmetricIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 20000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	g := fisherSkew(x)
	if math.Abs(g) > 0.1 {
		t.Fatalf("skew of N(0,1) sample = %v, want ≈0", g)
	}
}

func TestEncoderContinuousRoundTrip(t *testing.T) {
	c := &Column{Name: "v", Kind: Continuous, Floats: []float64{3.5, 1.0, 2.0, 2.0, 9.9}}
	e := BuildEncoder(c)
	if e.Card != 4 {
		t.Fatalf("card=%d, want 4", e.Card)
	}
	for _, v := range []float64{1.0, 2.0, 3.5, 9.9} {
		code, err := e.EncodeFloat(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.DecodeFloat(code); got != v {
			t.Fatalf("roundtrip %v -> %d -> %v", v, code, got)
		}
	}
	if _, err := e.EncodeFloat(4.2); err == nil {
		t.Fatal("expected error encoding out-of-domain value")
	}
}

func TestEncoderOrderPreserved(t *testing.T) {
	c := &Column{Name: "v", Kind: Continuous, Floats: []float64{5, -1, 3, 0}}
	e := BuildEncoder(c)
	prev := math.Inf(-1)
	for code := 0; code < e.Card; code++ {
		v := e.DecodeFloat(code)
		if v <= prev {
			t.Fatalf("encoding not order-preserving at code %d", code)
		}
		prev = v
	}
}

func TestRangeToCodes(t *testing.T) {
	c := &Column{Name: "v", Kind: Continuous, Floats: []float64{1, 2, 3, 4, 5}}
	e := BuildEncoder(c)
	cases := []struct {
		lo, hi         float64
		loInc, hiInc   bool
		wantLo, wantHi int
		wantOK         bool
	}{
		{2, 4, true, true, 1, 3, true},
		{2, 4, false, false, 2, 2, true},
		{0, 10, true, true, 0, 4, true},
		{2.5, 2.9, true, true, 0, 0, false},
		{4, 2, true, true, 0, 0, false},
		{5, 5, true, true, 4, 4, true},
		{5, 5, false, true, 0, 0, false},
		{math.Inf(-1), 3, true, false, 0, 1, true},
	}
	for i, cse := range cases {
		lo, hi, ok, err := e.RangeToCodes(cse.lo, cse.hi, cse.loInc, cse.hiInc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if ok != cse.wantOK || (ok && (lo != cse.wantLo || hi != cse.wantHi)) {
			t.Fatalf("case %d: got (%d,%d,%v), want (%d,%d,%v)", i, lo, hi, ok, cse.wantLo, cse.wantHi, cse.wantOK)
		}
	}
}

func TestEncodeTable(t *testing.T) {
	tb := SynthTWI(500, 5)
	te := BuildTableEncoder(tb)
	rows, err := te.EncodeTable(tb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("rows=%d", len(rows))
	}
	cards := te.Cards()
	for i, r := range rows {
		for j, code := range r {
			if code < 0 || code >= cards[j] {
				t.Fatalf("row %d col %d code %d out of [0,%d)", i, j, code, cards[j])
			}
		}
	}
	// Spot-check decode matches raw value.
	raw := tb.Columns[0].Floats[123]
	if got := te.Encoders[0].DecodeFloat(rows[123][0]); got != raw {
		t.Fatalf("decode mismatch %v vs %v", got, raw)
	}
}

func TestFactorSpecRoundTripProperty(t *testing.T) {
	f := func(card16 uint16, code32 uint32) bool {
		card := int(card16)%100000 + 2
		spec, err := NewFactorSpec(card, 2048)
		if err != nil {
			return false
		}
		code := int(code32) % card
		sub := spec.Split(code)
		if len(sub) != len(spec.Bases) {
			return false
		}
		for i, s := range sub {
			if s < 0 || s >= spec.Bases[i] {
				return false
			}
		}
		return spec.Join(sub) == code
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorSpecShape(t *testing.T) {
	spec, err := NewFactorSpec(1_000_000, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Bases) != 2 {
		t.Fatalf("bases=%v, want 2 subcolumns", spec.Bases)
	}
	if spec.Bases[0]*spec.Bases[1] < 1_000_000 {
		t.Fatalf("bases product %d < card", spec.Bases[0]*spec.Bases[1])
	}
	small, err := NewFactorSpec(100, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Bases) != 1 || small.Bases[0] != 100 {
		t.Fatalf("small card factored: %v", small.Bases)
	}
}

func TestSynthIMDBIntegrity(t *testing.T) {
	db := SynthIMDB(800, 6)
	for _, tb := range []*Table{db.Title, db.MovieInfo, db.CastInfo} {
		if err := tb.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if len(db.MovieInfoFK) != db.MovieInfo.NumRows() {
		t.Fatalf("movie_info FK len %d vs rows %d", len(db.MovieInfoFK), db.MovieInfo.NumRows())
	}
	if len(db.CastInfoFK) != db.CastInfo.NumRows() {
		t.Fatalf("cast_info FK len %d vs rows %d", len(db.CastInfoFK), db.CastInfo.NumRows())
	}
	for _, fk := range db.MovieInfoFK {
		if fk < 0 || fk >= db.Title.NumRows() {
			t.Fatalf("movie_info FK %d out of range", fk)
		}
	}
	for _, fk := range db.CastInfoFK {
		if fk < 0 || fk >= db.Title.NumRows() {
			t.Fatalf("cast_info FK %d out of range", fk)
		}
	}
	// Fact tables must be larger than the dimension table (fanout ≥ 1).
	if db.MovieInfo.NumRows() < db.Title.NumRows() {
		t.Fatal("movie_info smaller than title")
	}
}

func TestDescribeTable1(t *testing.T) {
	tb := SynthWISDM(3000, 7)
	st := Describe(tb)
	if st.Rows != 3000 {
		t.Fatalf("rows=%d", st.Rows)
	}
	if st.JointLog10 <= 0 {
		t.Fatalf("joint log10 = %v", st.JointLog10)
	}
}

// TestGeneratorsDeterministic: every generator is a pure function of (size,
// seed), so workloads and models built on its output replay exactly, and a
// different seed gives different data.
func TestGeneratorsDeterministic(t *testing.T) {
	tables := map[string]func() []*Table{
		"WISDM": func() []*Table { return []*Table{SynthWISDM(300, 5)} },
		"TWI":   func() []*Table { return []*Table{SynthTWI(300, 5)} },
		"HIGGS": func() []*Table { return []*Table{SynthHIGGS(300, 5)} },
		"IMDB": func() []*Table {
			db := SynthIMDB(100, 5)
			return []*Table{db.Title, db.MovieInfo, db.CastInfo, fkTable(db.MovieInfoFK), fkTable(db.CastInfoFK)}
		},
	}
	for name, gen := range tables {
		a, b := gen(), gen()
		for ti := range a {
			for ci, c := range a[ti].Columns {
				d := b[ti].Columns[ci]
				if len(c.Ints) != len(d.Ints) || len(c.Floats) != len(d.Floats) {
					t.Fatalf("%s table %d column %s: lengths differ from the same seed", name, ti, c.Name)
				}
				for i := range c.Ints {
					if c.Ints[i] != d.Ints[i] {
						t.Fatalf("%s table %d column %s row %d: %d, then %d from the same seed", name, ti, c.Name, i, c.Ints[i], d.Ints[i])
					}
				}
				for i := range c.Floats {
					if math.Float64bits(c.Floats[i]) != math.Float64bits(d.Floats[i]) {
						t.Fatalf("%s table %d column %s row %d: %v, then %v from the same seed", name, ti, c.Name, i, c.Floats[i], d.Floats[i])
					}
				}
			}
		}
	}
	a := SynthTWI(200, 42)
	c := SynthTWI(200, 43)
	same := true
	for i := range a.Columns[0].Floats {
		if a.Columns[0].Floats[i] != c.Columns[0].Floats[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

// fkTable wraps a foreign-key slice as a one-column table for comparison.
func fkTable(fk []int) *Table {
	return &Table{Columns: []*Column{{Name: "fk", Kind: Categorical, Ints: fk}}}
}
