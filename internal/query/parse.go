package query

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"iam/internal/dataset"
)

// Parse builds a query from a SQL-ish conjunction such as
//
//	"latitude <= 40 AND longitude >= -100 AND activity_code = 3"
//
// Supported operators: =, !=, <, <=, >, >=. ≠ predicates must be the only
// predicate rewritten by the caller via SplitNe; Parse rejects them here to
// keep estimation semantics explicit.
func Parse(t *dataset.Table, s string) (*Query, error) {
	q := NewQuery(t)
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "true") {
		return q, nil
	}
	parts := splitAnd(s)
	for _, part := range parts {
		pred, err := parsePredicate(part)
		if err != nil {
			return nil, err
		}
		if err := q.AddPredicate(pred); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// splitAnd splits on the AND keyword (case-insensitive).
func splitAnd(s string) []string {
	var out []string
	rest := s
	for {
		idx := indexAnd(rest)
		if idx < 0 {
			out = append(out, strings.TrimSpace(rest))
			return out
		}
		out = append(out, strings.TrimSpace(rest[:idx]))
		rest = rest[idx+5:]
	}
}

// indexAnd returns the byte offset in s of the first " and " in any ASCII
// letter case, or -1. It matches on s's own bytes: lower-casing s first
// would shift the offsets wherever a rune's lower case has another UTF-8
// length.
func indexAnd(s string) int {
	for i := 0; i+5 <= len(s); i++ {
		if s[i] == ' ' && s[i+4] == ' ' && strings.EqualFold(s[i+1:i+4], "and") {
			return i
		}
	}
	return -1
}

var opTable = []struct {
	tok string
	op  Op
}{
	// Longest first so "<=" is not read as "<".
	{"<=", Le}, {">=", Ge}, {"!=", Ne}, {"<>", Ne}, {"=", Eq}, {"<", Lt}, {">", Gt},
}

func parsePredicate(s string) (Predicate, error) {
	for _, o := range opTable {
		idx := strings.Index(s, o.tok)
		if idx < 0 {
			continue
		}
		col := strings.TrimSpace(s[:idx])
		valStr := strings.TrimSpace(s[idx+len(o.tok):])
		if col == "" || valStr == "" {
			return Predicate{}, fmt.Errorf("query: malformed predicate %q", s)
		}
		if o.op == Ne {
			return Predicate{}, fmt.Errorf("query: rewrite %q with SplitNe before parsing", s)
		}
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return Predicate{}, fmt.Errorf("query: value in %q: %w", s, err)
		}
		if math.IsNaN(v) {
			// NaN compares false with every bound, so the predicate would
			// silently constrain nothing.
			return Predicate{}, fmt.Errorf("query: value in %q is NaN", s)
		}
		return Predicate{Col: col, Op: o.op, Value: v}, nil
	}
	return Predicate{}, fmt.Errorf("query: no operator in predicate %q", s)
}
