package dataset

import (
	"fmt"
	"math"
	"sort"
)

// ColumnEncoder maps the raw values of one column onto dense ordinal codes
// [0, Card), preserving value order — the encoding strategy of Naru/NeuroCard
// that the paper adopts (§3). Continuous columns get one code per distinct
// value; categorical columns pass their codes through unchanged.
type ColumnEncoder struct {
	Name string
	Kind Kind
	Card int
	vals []float64 // ascending distinct values (continuous only)
}

// BuildEncoder constructs the encoder for a column from its data.
func BuildEncoder(c *Column) *ColumnEncoder {
	e := &ColumnEncoder{Name: c.Name, Kind: c.Kind}
	if c.Kind == Categorical {
		e.Card = c.Card
		return e
	}
	e.vals = SortedDistinct(c.Floats)
	e.Card = len(e.vals)
	return e
}

// EncodeFloat returns the code of a continuous value. The value must occur in
// the column the encoder was built from.
//
// iam:noalloc
func (e *ColumnEncoder) EncodeFloat(v float64) (int, error) {
	i := sort.SearchFloat64s(e.vals, v)
	if i >= len(e.vals) || e.vals[i] != v {
		//lint:ignore noalloc cold out-of-domain path, never taken while the table matches the encoder
		return 0, fmt.Errorf("dataset: value %v not in domain of column %q", v, e.Name)
	}
	return i, nil
}

// DecodeFloat returns the continuous value for a code.
func (e *ColumnEncoder) DecodeFloat(code int) float64 {
	return e.vals[code]
}

// RangeToCodes maps an interval over raw values to an inclusive code
// interval [loCode, hiCode]: exactly the codes whose raw value v satisfies
// lo ≤ v ≤ hi, with loInc/hiInc selecting ≤/≥ versus </>. A continuous
// code's raw value is its distinct value; a categorical code k is the raw
// value k itself. If no code qualifies it returns ok=false. Infinite bounds
// are unbounded sides; a NaN bound is an error.
func (e *ColumnEncoder) RangeToCodes(lo, hi float64, loInc, hiInc bool) (loCode, hiCode int, ok bool, err error) {
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return 0, 0, false, fmt.Errorf("dataset: NaN bound [%v, %v] on column %s", lo, hi, e.Name)
	}
	if e.Kind == Categorical {
		loCode, hiCode, ok = categoricalRange(lo, hi, loInc, hiInc, e.Card)
		return loCode, hiCode, ok, nil
	}
	// Smallest index with vals[i] >= lo (or > lo when exclusive).
	loCode = sort.SearchFloat64s(e.vals, lo)
	if !loInc && loCode < len(e.vals) && e.vals[loCode] == lo {
		loCode++
	}
	// Largest index with vals[i] <= hi (or < hi when exclusive).
	hiCode = sort.SearchFloat64s(e.vals, hi)
	if hiCode < len(e.vals) && e.vals[hiCode] == hi && hiInc {
		// keep: vals[hiCode] == hi qualifies
	} else {
		hiCode--
	}
	if loCode > hiCode || loCode >= len(e.vals) || hiCode < 0 {
		return 0, 0, false, nil
	}
	return loCode, hiCode, true, nil
}

// categoricalRange is RangeToCodes over the codes 0..card-1. The bounds are
// clipped to that domain as float64 before any conversion to int, so huge or
// infinite bounds cannot overflow it.
func categoricalRange(lo, hi float64, loInc, hiInc bool, card int) (int, int, bool) {
	top := float64(card - 1)
	if lo > top || hi < 0 {
		return 0, 0, false
	}
	l := 0.0
	if lo >= 0 {
		l = math.Ceil(lo)
		if l == lo && !loInc {
			l++
		}
	}
	h := top
	if hi <= top {
		h = math.Floor(hi)
		if h == hi && !hiInc {
			h--
		}
	}
	if l > h {
		return 0, 0, false
	}
	return int(l), int(h), true
}

// Values exposes the ascending distinct values backing a continuous
// encoder (nil for categorical encoders) — used for serialization.
func (e *ColumnEncoder) Values() []float64 { return e.vals }

// RestoreEncoder rebuilds an encoder from serialized state: categorical
// encoders from (name, card), continuous ones from their distinct values.
func RestoreEncoder(name string, kind Kind, card int, vals []float64) *ColumnEncoder {
	e := &ColumnEncoder{Name: name, Kind: kind}
	if kind == Categorical {
		e.Card = card
		return e
	}
	e.vals = vals
	e.Card = len(vals)
	return e
}

// TableEncoder bundles per-column encoders for a table.
type TableEncoder struct {
	Encoders []*ColumnEncoder
}

// BuildTableEncoder constructs encoders for every column of t.
func BuildTableEncoder(t *Table) *TableEncoder {
	te := &TableEncoder{Encoders: make([]*ColumnEncoder, len(t.Columns))}
	for i, c := range t.Columns {
		te.Encoders[i] = BuildEncoder(c)
	}
	return te
}

// Cards returns the encoded domain size of each column.
func (te *TableEncoder) Cards() []int {
	out := make([]int, len(te.Encoders))
	for i, e := range te.Encoders {
		out[i] = e.Card
	}
	return out
}

// EncodeTable converts every row of t into ordinal codes. The result is a
// row-major matrix backed by one allocation.
func (te *TableEncoder) EncodeTable(t *Table) ([][]int, error) {
	n := t.NumRows()
	ncols := len(t.Columns)
	if ncols != len(te.Encoders) {
		return nil, fmt.Errorf("dataset: encoder/table column count mismatch %d vs %d", len(te.Encoders), ncols)
	}
	flat := make([]int, n*ncols)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = flat[i*ncols : (i+1)*ncols]
	}
	for j, c := range t.Columns {
		e := te.Encoders[j]
		if c.Kind == Categorical {
			for i, v := range c.Ints {
				rows[i][j] = v
			}
			continue
		}
		for i, v := range c.Floats {
			code, err := e.EncodeFloat(v)
			if err != nil {
				return nil, err
			}
			rows[i][j] = code
		}
	}
	return rows, nil
}

// FactorSpec describes NeuroCard-style column factorization: a code in
// [0, Card) is split into len(Bases) subcolumn codes by mixed-radix
// decomposition, most-significant subcolumn first. Factorization is lossless
// (chain rule, paper §4.2).
type FactorSpec struct {
	Card  int
	Bases []int // subcolumn domain sizes, most significant first
}

// NewFactorSpec splits a domain of size card into subcolumns of size at most
// maxSub. A card ≤ maxSub yields a single identity subcolumn.
func NewFactorSpec(card, maxSub int) (FactorSpec, error) {
	if card <= 0 || maxSub <= 1 {
		return FactorSpec{}, fmt.Errorf("dataset: invalid factorization parameters card=%d maxSub=%d", card, maxSub)
	}
	if card <= maxSub {
		return FactorSpec{Card: card, Bases: []int{card}}, nil
	}
	// Number of subcolumns needed so that maxSub^k >= card.
	k := 1
	prod := maxSub
	for prod < card {
		k++
		if prod > card/maxSub+1 {
			prod = card // avoid overflow; loop will exit
		} else {
			prod *= maxSub
		}
	}
	bases := make([]int, k)
	for i := 1; i < k; i++ {
		bases[i] = maxSub
	}
	// Most significant base is just large enough.
	lowProd := 1
	for i := 1; i < k; i++ {
		lowProd *= maxSub
	}
	bases[0] = (card + lowProd - 1) / lowProd
	return FactorSpec{Card: card, Bases: bases}, nil
}

// Split decomposes code into subcolumn codes (most significant first).
func (f FactorSpec) Split(code int) []int {
	out := make([]int, len(f.Bases))
	f.SplitInto(out, code)
	return out
}

// SplitInto writes the decomposition of code into dst, which must have
// len(f.Bases) elements.
func (f FactorSpec) SplitInto(dst []int, code int) {
	for i := len(f.Bases) - 1; i >= 0; i-- {
		b := f.Bases[i]
		dst[i] = code % b
		code /= b
	}
}

// Digit returns subcolumn p of the decomposition of code without allocating —
// the progressive sampler calls this in its per-sample inner loop, where a
// Split slice per call would dominate the allocation profile.
func (f FactorSpec) Digit(code, p int) int {
	stride := 1
	for i := len(f.Bases) - 1; i > p; i-- {
		stride *= f.Bases[i]
	}
	return (code / stride) % f.Bases[p]
}

// Join recomposes subcolumn codes into the original code.
func (f FactorSpec) Join(sub []int) int {
	code := 0
	for i, b := range f.Bases {
		code = code*b + sub[i]
	}
	return code
}
