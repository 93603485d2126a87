package query

import (
	"testing"

	"iam/internal/dataset"
)

// fuzzTable is tinyTable plus a column with a non-ASCII name.
func fuzzTable() *dataset.Table {
	t := tinyTable()
	t.Columns = append(t.Columns, &dataset.Column{Name: "höhe", Kind: dataset.Continuous, Floats: []float64{-1, 0, 1, 2, 3}})
	return t
}

// FuzzParse checks that Parse never panics on any input, and that every
// query it accepts renders (String) to text that parses back to the same
// per-column intervals. The seed corpus is in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	tb := fuzzTable()
	f.Fuzz(func(t *testing.T, s string) {
		q, err := Parse(tb, s)
		if err != nil {
			return
		}
		text := q.String()
		back, err := Parse(tb, text)
		if err != nil {
			t.Fatalf("Parse(%q) renders as %q, which does not parse: %v", s, text, err)
		}
		for i, r := range q.Ranges {
			b := back.Ranges[i]
			if (r == nil) != (b == nil) || (r != nil && *r != *b) {
				t.Fatalf("Parse(%q) renders as %q; column %d interval %v parses back as %v", s, text, i, r, b)
			}
		}
	})
}
