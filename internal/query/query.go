// Package query defines the predicate and workload model for selectivity
// estimation: conjunctive range/point queries over one table (paper §2.1),
// the random workload generator of §6.1.3, and an exact scan-based executor
// that supplies ground-truth selectivities.
package query

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"iam/internal/dataset"
)

// Op is a comparison operator in a predicate.
type Op int

const (
	Eq Op = iota // =
	Le           // ≤
	Ge           // ≥
	Lt           // <
	Gt           // >
	Ne           // ≠ (supported via rewrite, see SplitNe)
)

// String renders the operator as SQL text.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Le:
		return "<="
	case Ge:
		return ">="
	case Lt:
		return "<"
	case Gt:
		return ">"
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Predicate constrains one column. For categorical columns Value holds the
// integer code (as float64); for continuous columns the raw value.
type Predicate struct {
	Col   string
	Op    Op
	Value float64
}

// Interval is a (possibly half-open) interval constraint on one column.
// Categorical columns are constrained on their integer codes. Nil intervals
// in Query.Ranges mean "unconstrained".
type Interval struct {
	Lo, Hi       float64
	LoInc, HiInc bool
}

// Everything returns the unconstrained interval.
func Everything() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1), LoInc: true, HiInc: true}
}

// Contains reports whether v satisfies the interval.
func (iv Interval) Contains(v float64) bool {
	if v < iv.Lo || (v == iv.Lo && !iv.LoInc) {
		return false
	}
	if v > iv.Hi || (v == iv.Hi && !iv.HiInc) {
		return false
	}
	return true
}

// Intersect narrows iv by other, returning ok=false when empty.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	out := iv
	if other.Lo > out.Lo || (other.Lo == out.Lo && !other.LoInc) {
		out.Lo, out.LoInc = other.Lo, other.LoInc
	}
	if other.Hi < out.Hi || (other.Hi == out.Hi && !other.HiInc) {
		out.Hi, out.HiInc = other.Hi, other.HiInc
	}
	if out.Lo > out.Hi {
		return out, false
	}
	if out.Lo == out.Hi && (!out.LoInc || !out.HiInc) {
		return out, false
	}
	return out, true
}

// Query is a conjunction of per-column interval constraints against a table.
// Ranges is indexed by column position; nil means the column is unqueried.
type Query struct {
	Table  *dataset.Table
	Ranges []*Interval
}

// NewQuery returns an empty (all-columns-unconstrained) query on t.
func NewQuery(t *dataset.Table) *Query {
	return &Query{Table: t, Ranges: make([]*Interval, t.NumCols())}
}

// NumFilters returns the number of constrained columns.
func (q *Query) NumFilters() int {
	n := 0
	for _, r := range q.Ranges {
		if r != nil {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of q (sharing the table).
func (q *Query) Clone() *Query {
	c := NewQuery(q.Table)
	for i, r := range q.Ranges {
		if r != nil {
			cp := *r
			c.Ranges[i] = &cp
		}
	}
	return c
}

// AddPredicate intersects a predicate into the query. Ne predicates are
// rejected here; use SplitNe to rewrite them first.
func (q *Query) AddPredicate(p Predicate) error {
	idx := q.Table.ColumnIndex(p.Col)
	if idx < 0 {
		return fmt.Errorf("query: unknown column %q", p.Col)
	}
	var iv Interval
	switch p.Op {
	case Eq:
		iv = Interval{Lo: p.Value, Hi: p.Value, LoInc: true, HiInc: true}
	case Le:
		iv = Interval{Lo: math.Inf(-1), Hi: p.Value, LoInc: true, HiInc: true}
	case Lt:
		iv = Interval{Lo: math.Inf(-1), Hi: p.Value, LoInc: true, HiInc: false}
	case Ge:
		iv = Interval{Lo: p.Value, Hi: math.Inf(1), LoInc: true, HiInc: true}
	case Gt:
		iv = Interval{Lo: p.Value, Hi: math.Inf(1), LoInc: false, HiInc: true}
	case Ne:
		return fmt.Errorf("query: ≠ must be rewritten with SplitNe before AddPredicate")
	default:
		return fmt.Errorf("query: unsupported op %v", p.Op)
	}
	cur := Everything()
	if q.Ranges[idx] != nil {
		cur = *q.Ranges[idx]
	}
	merged, ok := cur.Intersect(iv)
	if !ok {
		// Empty intersection: record an explicitly empty interval.
		merged = Interval{Lo: 1, Hi: 0}
	}
	q.Ranges[idx] = &merged
	return nil
}

// SplitNe rewrites a query containing one A ≠ v predicate into the two
// disjoint range queries (A < v) and (A > v); the caller estimates each and
// adds the results (inclusion–exclusion with an empty intersection).
func SplitNe(q *Query, col string, v float64) (*Query, *Query, error) {
	lt := q.Clone()
	if err := lt.AddPredicate(Predicate{Col: col, Op: Lt, Value: v}); err != nil {
		return nil, nil, err
	}
	gt := q.Clone()
	if err := gt.AddPredicate(Predicate{Col: col, Op: Gt, Value: v}); err != nil {
		return nil, nil, err
	}
	return lt, gt, nil
}

// String renders the query as SQL-ish text.
func (q *Query) String() string {
	var parts []string
	for i, r := range q.Ranges {
		if r == nil {
			continue
		}
		name := q.Table.Columns[i].Name
		switch {
		case r.Lo == r.Hi && r.LoInc && r.HiInc:
			parts = append(parts, fmt.Sprintf("%s = %v", name, r.Lo))
		// A one-sided form drops the infinite bound, so it only stands in
		// for an inclusive one (the bound AddPredicate sets).
		case math.IsInf(r.Lo, -1) && r.LoInc && !math.IsInf(r.Hi, 1):
			op := "<="
			if !r.HiInc {
				op = "<"
			}
			parts = append(parts, fmt.Sprintf("%s %s %v", name, op, r.Hi))
		case !math.IsInf(r.Lo, -1) && math.IsInf(r.Hi, 1) && r.HiInc:
			op := ">="
			if !r.LoInc {
				op = ">"
			}
			parts = append(parts, fmt.Sprintf("%s %s %v", name, op, r.Lo))
		default:
			loOp, hiOp := ">=", "<="
			if !r.LoInc {
				loOp = ">"
			}
			if !r.HiInc {
				hiOp = "<"
			}
			parts = append(parts, fmt.Sprintf("%s %s %v AND %s %s %v", name, loOp, r.Lo, name, hiOp, r.Hi))
		}
	}
	if len(parts) == 0 {
		return "TRUE"
	}
	return strings.Join(parts, " AND ")
}

// Matches reports whether table row i satisfies the query.
func (q *Query) Matches(i int) bool {
	for j, r := range q.Ranges {
		if r == nil {
			continue
		}
		c := q.Table.Columns[j]
		var v float64
		if c.Kind == dataset.Categorical {
			v = float64(c.Ints[i])
		} else {
			v = c.Floats[i]
		}
		if !r.Contains(v) {
			return false
		}
	}
	return true
}

// Exec scans the table and returns the exact selectivity of q.
func Exec(q *Query) float64 {
	n := q.Table.NumRows()
	if n == 0 {
		return 0
	}
	count := 0
	for i := 0; i < n; i++ {
		if q.Matches(i) {
			count++
		}
	}
	return float64(count) / float64(n)
}

// ExecDisjunction returns the exact selectivity of q1 OR q2 via
// inclusion–exclusion on a single scan. Both queries must be bound to the
// same table.
func ExecDisjunction(q1, q2 *Query) (float64, error) {
	if q1.Table != q2.Table {
		return 0, errors.New("query: disjunction across different tables")
	}
	n := q1.Table.NumRows()
	if n == 0 {
		return 0, nil
	}
	count := 0
	for i := 0; i < n; i++ {
		if q1.Matches(i) || q2.Matches(i) {
			count++
		}
	}
	return float64(count) / float64(n), nil
}
