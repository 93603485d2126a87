// Package dataset defines the relational table model used throughout the
// repository: typed columns, ordinal value encoding, column factorization,
// synthetic dataset generators mirroring the paper's four evaluation datasets
// (WISDM, TWI, HIGGS, IMDB), and the correlation/skewness statistics the
// paper reports (NCIE and Fisher skewness).
package dataset

import (
	"fmt"
	"math"
	"sort"
)

// Kind distinguishes categorical from continuous columns.
type Kind int

const (
	// Categorical columns hold dense integer codes in [0, Card).
	Categorical Kind = iota
	// Continuous columns hold float64 values with potentially huge domains.
	Continuous
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Column is a single named attribute stored columnar.
//
// Exactly one of Ints (categorical codes) or Floats (continuous values) is
// populated, according to Kind.
type Column struct {
	Name   string
	Kind   Kind
	Ints   []int     // categorical codes, dense in [0, Card)
	Floats []float64 // continuous values
	Card   int       // categorical cardinality (0 for continuous)
	Labels []string  // optional human labels for categorical codes
}

// Len returns the number of rows stored in the column.
func (c *Column) Len() int {
	if c.Kind == Categorical {
		return len(c.Ints)
	}
	return len(c.Floats)
}

// DistinctCount returns the number of distinct values in the column.
func (c *Column) DistinctCount() int {
	if c.Kind == Categorical {
		seen := make(map[int]struct{}, c.Card)
		for _, v := range c.Ints {
			seen[v] = struct{}{}
		}
		return len(seen)
	}
	seen := make(map[float64]struct{}, 1024)
	for _, v := range c.Floats {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// MinMax returns the smallest and largest value of a continuous column.
// It errors on categorical columns or empty data.
func (c *Column) MinMax() (lo, hi float64, err error) {
	if c.Kind != Continuous {
		return 0, 0, fmt.Errorf("dataset: MinMax on categorical column %s", c.Name)
	}
	if len(c.Floats) == 0 {
		return 0, 0, fmt.Errorf("dataset: MinMax on empty column %s", c.Name)
	}
	lo, hi = c.Floats[0], c.Floats[0]
	for _, v := range c.Floats[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, nil
}

// Table is a set of equal-length columns.
type Table struct {
	Name    string
	Columns []*Column
}

// NumRows returns the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.Columns) }

// Column returns the column with the given name, or nil if absent.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural invariants: equal column lengths, dense
// categorical codes within [0, Card).
func (t *Table) Validate() error {
	n := t.NumRows()
	for _, c := range t.Columns {
		if c.Len() != n {
			return fmt.Errorf("dataset: column %q has %d rows, table has %d", c.Name, c.Len(), n)
		}
		if c.Kind == Categorical {
			if c.Card <= 0 {
				return fmt.Errorf("dataset: categorical column %q has Card=%d", c.Name, c.Card)
			}
			for i, v := range c.Ints {
				if v < 0 || v >= c.Card {
					return fmt.Errorf("dataset: column %q row %d code %d out of [0,%d)", c.Name, i, v, c.Card)
				}
			}
		}
	}
	return nil
}

// JointDomainLog10 returns log10 of the product of all column domain sizes —
// the "Joint" statistic in the paper's Table 1.
func (t *Table) JointDomainLog10() float64 {
	var s float64
	for _, c := range t.Columns {
		d := c.DistinctCount()
		if d > 0 {
			s += math.Log10(float64(d))
		}
	}
	return s
}

// Stats summarises a table the way the paper's Table 1 does.
type Stats struct {
	Name           string
	Rows           int
	ColsCat        int
	ColsCon        int
	JointLog10     float64
	NCIE           float64
	FisherSkewMean float64
	FisherSkewMax  float64
}

// Describe computes the Table 1 statistics for t.
func Describe(t *Table) Stats {
	s := Stats{Name: t.Name, Rows: t.NumRows()}
	for _, c := range t.Columns {
		if c.Kind == Categorical {
			s.ColsCat++
		} else {
			s.ColsCon++
		}
	}
	s.JointLog10 = t.JointDomainLog10()
	s.NCIE = NCIE(t, 0)
	mean, max := FisherSkewness(t)
	s.FisherSkewMean = mean
	s.FisherSkewMax = max
	return s
}

// SortedDistinct returns the ascending distinct values of a continuous
// column. The result is freshly allocated.
func SortedDistinct(values []float64) []float64 {
	if len(values) == 0 {
		return nil
	}
	cp := append([]float64(nil), values...)
	sort.Float64s(cp)
	out := cp[:1]
	for _, v := range cp[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
