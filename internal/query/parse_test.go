package query

import (
	"testing"

	"iam/internal/dataset"
)

func TestParseConjunction(t *testing.T) {
	tb := tinyTable()
	q, err := Parse(tb, "val <= 4 AND val >= 2 AND cat = 1")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumFilters() != 2 {
		t.Fatalf("filters = %d, want 2 (val merged)", q.NumFilters())
	}
	// Rows with 2 ≤ val ≤ 4 and cat = 1: rows 1 and 3 of 5.
	if got := Exec(q); got != 0.4 {
		t.Fatalf("sel = %v, want 0.4", got)
	}
}

func TestParseCaseInsensitiveAnd(t *testing.T) {
	tb := tinyTable()
	q, err := Parse(tb, "val < 3 and cat >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if got := Exec(q); got != 0.4 {
		t.Fatalf("sel = %v, want 0.4", got)
	}
}

func TestParseEmptyIsTrue(t *testing.T) {
	tb := tinyTable()
	for _, s := range []string{"", "  ", "TRUE", "true"} {
		q, err := Parse(tb, s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if Exec(q) != 1 {
			t.Fatalf("%q: not the full table", s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tb := tinyTable()
	cases := []string{
		"val ~ 3",       // unknown operator
		"val <= abc",    // bad value
		"nope <= 3",     // unknown column
		"val != 3",      // Ne must go through SplitNe
		"<= 3",          // missing column
		"val <=",        // missing value
		"val <= 3 AND ", // trailing AND
		"val <= NaN",    // NaN would constrain nothing
	}
	for _, s := range cases {
		if _, err := Parse(tb, s); err == nil {
			t.Fatalf("expected error for %q", s)
		}
	}
}

func TestParseNegativeValues(t *testing.T) {
	tb := &dataset.Table{Name: "n", Columns: []*dataset.Column{
		{Name: "v", Kind: dataset.Continuous, Floats: []float64{-5, -1, 0, 2}},
		{Name: "w", Kind: dataset.Continuous, Floats: []float64{1, 2, 3, 4}},
	}}
	q, err := Parse(tb, "v >= -2")
	if err != nil {
		t.Fatal(err)
	}
	if got := Exec(q); got != 0.75 {
		t.Fatalf("sel = %v, want 0.75", got)
	}
}
