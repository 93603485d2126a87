package ar

import (
	"errors"
	"math"
	"slices"

	"iam/internal/dataset"
	"iam/internal/query"
)

// Column is the interval → constraint codec of one original column: the
// query construction q → q′ of §5.1 and, for weighted columns, the §5.2
// bias-correction weights. Every estimator over the AR model (IAM, its AVG/SUM
// extension, Naru/NeuroCard, UAE and the join models) turns a predicate into
// constraints through Constrain, so bound handling lives in one place.
//
// A column is either weighted (Weights non-nil: GMM or alternative-reducer
// components, one AR column) or coded (Enc maps raw values to ordinal codes,
// clamped to [MinCode, MaxCode]; Count > 1 factors the code over the
// subcolumns described by Factor).
type Column struct {
	First, Count int // the AR columns [First, First+Count) this column spans

	Enc              *dataset.ColumnEncoder
	Factor           dataset.FactorSpec // valid when Count > 1
	MinCode, MaxCode int                // codes outside are never admitted (e.g. NULL codes)

	// Weights fills out (Card entries, one per code) with the per-code
	// admission weights of the effective closed interval [lo, hi]. out comes
	// from the constraint arena, so building a batch's weights allocates
	// nothing once the arena is warm.
	Weights func(lo, hi float64, out []float64)
	Card    int // codes of a weighted column: the length of its weight vector
}

// NewCodedColumn returns the codec of an ordinally encoded column whose first
// AR column is first. A domain larger than maxSub is factored NeuroCard-style
// into subcolumns of at most maxSub codes.
func NewCodedColumn(first int, enc *dataset.ColumnEncoder, maxSub int) (Column, error) {
	c := Column{First: first, Count: 1, Enc: enc, MaxCode: enc.Card - 1}
	if enc.Card > maxSub {
		spec, err := dataset.NewFactorSpec(enc.Card, maxSub)
		if err != nil {
			return Column{}, err
		}
		c.Factor, c.Count = spec, len(spec.Bases)
	}
	return c, nil
}

// AppendCards appends the AR cardinalities of a coded column to cards.
func (c *Column) AppendCards(cards []int) []int {
	if c.Count > 1 {
		return append(cards, c.Factor.Bases...)
	}
	return append(cards, c.Enc.Card)
}

// ErrNaNBound rejects a query interval with a NaN endpoint: NaN compares
// false against every value, so no side of it has a meaning. query.Parse
// never produces one; hand-built queries can.
var ErrNaNBound = errors.New("ar: query interval has a NaN bound")

// empty is EmptyConstraint boxed once, so emitting it never allocates.
var empty Constraint = EmptyConstraint{}

// ClosedBounds returns the effective closed interval of iv: an open endpoint
// moves one float inward, so mass functions over [lo, hi] honour </>
// semantics exactly.
func ClosedBounds(iv query.Interval) (lo, hi float64) {
	lo, hi = iv.Lo, iv.Hi
	if !iv.LoInc {
		lo = math.Nextafter(lo, math.Inf(1))
	}
	if !iv.HiInc {
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	return lo, hi
}

// Codes maps iv to the inclusive code interval of a coded column, clamped to
// [MinCode, MaxCode]; ok is false when no code qualifies.
//
// iam:noalloc
func (c *Column) Codes(iv query.Interval) (lo, hi int, ok bool, err error) {
	lo, hi, ok, err = c.Enc.RangeToCodes(iv.Lo, iv.Hi, iv.LoInc, iv.HiInc)
	lo = max(lo, c.MinCode)
	hi = min(hi, c.MaxCode)
	return lo, hi, ok && lo <= hi, err
}

// Constrain writes the constraints of interval iv into dst at the column's
// AR positions, boxing them out of a. A NaN endpoint is ErrNaNBound; an
// inverted or code-less interval admits nothing.
//
// iam:noalloc
func (c *Column) Constrain(iv query.Interval, dst []Constraint, a *Arena) error {
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return ErrNaNBound
	}
	if iv.Lo > iv.Hi {
		dst[c.First] = empty
		return nil
	}
	if c.Weights != nil {
		lo, hi := ClosedBounds(iv)
		//lint:ignore noalloc the arena's amortized growth, inlined from floats; zero once its capacity is warm
		w := a.floats(c.Card)
		c.Weights(lo, hi, w)
		dst[c.First] = a.weight(w)
		return nil
	}
	lo, hi, ok, err := c.Codes(iv)
	switch {
	case err != nil:
		return err
	case !ok:
		dst[c.First] = empty
	case c.Count == 1:
		dst[c.First] = a.rangeCon(lo, hi)
	default:
		for p := 0; p < c.Count; p++ {
			dst[c.First+p] = a.factored(FactoredConstraint{
				Spec: c.Factor, Part: p, FirstCol: c.First, Lo: lo, Hi: hi,
			})
		}
	}
	return nil
}

// Arena owns typed backing arrays for every constraint kind and boxes
// *pointers* into them: the pointer method set of each constraint type
// includes its value-receiver Fill, so a *RangeConstraint satisfies
// Constraint without copying, and boxing an existing pointer never
// allocates. Arrays grow by append; when an append reallocates, previously
// boxed pointers keep aiming at the old array, which stays correct because
// constraint values are immutable once built. With warm capacities a whole
// batch of queries constrains with zero heap allocations. The zero Arena is
// ready to use.
type Arena struct {
	rcs []RangeConstraint
	wcs []WeightConstraint
	fcs []FactoredConstraint
	ws  []float64 // backing of the weight vectors the WeightConstraints read
}

// Reset empties the arena for reuse. Constraints boxed before the reset
// must no longer be read.
func (a *Arena) Reset() {
	a.rcs = a.rcs[:0]
	a.wcs = a.wcs[:0]
	a.fcs = a.fcs[:0]
	a.ws = a.ws[:0]
}

// floats returns n weight slots from the arena, capped so that a later
// append cannot write into them.
//
// iam:noalloc
func (a *Arena) floats(n int) []float64 {
	lo := len(a.ws)
	//lint:ignore noalloc amortized growth of the pooled arena; zero once its capacity is warm
	a.ws = slices.Grow(a.ws, n)[:lo+n]
	return a.ws[lo : lo+n : lo+n]
}

// iam:noalloc
func (a *Arena) rangeCon(lo, hi int) Constraint {
	a.rcs = append(a.rcs, RangeConstraint{Lo: lo, Hi: hi})
	return &a.rcs[len(a.rcs)-1]
}

// iam:noalloc
func (a *Arena) weight(w []float64) Constraint {
	a.wcs = append(a.wcs, WeightConstraint{W: w})
	return &a.wcs[len(a.wcs)-1]
}

// iam:noalloc
func (a *Arena) factored(fc FactoredConstraint) Constraint {
	a.fcs = append(a.fcs, fc)
	return &a.fcs[len(a.fcs)-1]
}
