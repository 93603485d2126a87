package query

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"iam/internal/dataset"
)

// Workload is a set of queries with their exact selectivities.
type Workload struct {
	Queries []*Query
	TrueSel []float64
}

// Write serializes the workload as text, one query per line:
// "<selectivity>\t<conjunction>". The format round-trips through Read and is
// diff-friendly for sharing benchmark workloads.
func (w *Workload) Write(out io.Writer) error {
	for i, q := range w.Queries {
		sel := 0.0
		if i < len(w.TrueSel) {
			sel = w.TrueSel[i]
		}
		if _, err := fmt.Fprintf(out, "%v\t%s\n", sel, q); err != nil {
			return err
		}
	}
	return nil
}

// ReadWorkload parses a workload written by Write, re-binding the queries
// to t.
func ReadWorkload(t *dataset.Table, in io.Reader) (*Workload, error) {
	w := &Workload{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.SplitN(text, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("query: workload line %d: want \"sel<TAB>query\"", line)
		}
		sel, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("query: workload line %d: %w", line, err)
		}
		q, err := Parse(t, parts[1])
		if err != nil {
			return nil, fmt.Errorf("query: workload line %d: %w", line, err)
		}
		w.Queries = append(w.Queries, q)
		w.TrueSel = append(w.TrueSel, sel)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

// GenConfig controls random workload generation (paper §6.1.3).
type GenConfig struct {
	NumQueries int
	Seed       int64
	// MinFilters/MaxFilters bound the number of predicated columns per
	// query; zero values default to 1..NumCols.
	MinFilters int
	MaxFilters int
	// SkipExec leaves TrueSel nil (useful when ground truth comes from
	// elsewhere, e.g. join workloads).
	SkipExec bool
}

// Generate builds a random workload over t following the paper's recipe:
// draw a set of columns; categorical columns get a uniform domain value and
// an operator from {=, ≤, ≥}; continuous columns get a uniform value between
// the column min and max and an operator from {≤, ≥}. Ground truth is
// computed by exact scan. A predicate the table rejects (e.g. a column
// mutated mid-generation) is reported as an error instead of a panic.
func Generate(t *dataset.Table, cfg GenConfig) (*Workload, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	minF := cfg.MinFilters
	if minF <= 0 {
		minF = 1
	}
	maxF := cfg.MaxFilters
	if maxF <= 0 || maxF > t.NumCols() {
		maxF = t.NumCols()
	}
	if minF > maxF {
		minF = maxF
	}

	// Precompute continuous column bounds.
	type bounds struct{ lo, hi float64 }
	b := make([]bounds, t.NumCols())
	for j, c := range t.Columns {
		if c.Kind == dataset.Continuous {
			lo, hi, err := c.MinMax()
			if err != nil {
				return nil, fmt.Errorf("query: generating workload: %w", err)
			}
			b[j] = bounds{lo, hi}
		}
	}

	w := &Workload{
		Queries: make([]*Query, 0, cfg.NumQueries),
		TrueSel: make([]float64, 0, cfg.NumQueries),
	}
	for len(w.Queries) < cfg.NumQueries {
		q := NewQuery(t)
		nf := minF + rng.Intn(maxF-minF+1)
		perm := rng.Perm(t.NumCols())[:nf]
		for _, j := range perm {
			c := t.Columns[j]
			var p Predicate
			if c.Kind == dataset.Categorical {
				p = Predicate{
					Col:   c.Name,
					Op:    []Op{Eq, Le, Ge}[rng.Intn(3)],
					Value: float64(rng.Intn(c.Card)),
				}
			} else {
				p = Predicate{
					Col:   c.Name,
					Op:    []Op{Le, Ge}[rng.Intn(2)],
					Value: b[j].lo + float64(rng.Float64()*(b[j].hi-b[j].lo)),
				}
			}
			if err := q.AddPredicate(p); err != nil {
				return nil, fmt.Errorf("query: generating workload: %w", err)
			}
		}
		w.Queries = append(w.Queries, q)
		if cfg.SkipExec {
			continue
		}
		w.TrueSel = append(w.TrueSel, Exec(q))
	}
	return w, nil
}
