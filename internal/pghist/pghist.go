// Package pghist reproduces the Postgres-style statistics estimator the
// paper compares against (§6.1.2 "Postgres"): per-column statistics — a
// most-common-values list plus an equi-depth histogram of the remaining
// values — combined across columns under the attribute-value-independence
// assumption, exactly the source of its large errors on correlated data.
package pghist

import (
	"fmt"
	"math"
	"sort"

	"iam/internal/dataset"
	"iam/internal/query"
	"iam/internal/vecmath"
)

// Config controls the statistics target.
type Config struct {
	// Buckets is the histogram resolution (Postgres default_statistics_target
	// is 100).
	Buckets int
	// MCVs is the most-common-values list length.
	MCVs int
}

func (c *Config) fillDefaults() {
	if c.Buckets <= 0 {
		c.Buckets = 100
	}
	if c.MCVs < 0 {
		c.MCVs = 20
	}
	if c.MCVs == 0 {
		c.MCVs = 20
	}
}

// colStats holds one column's statistics.
type colStats struct {
	mcvVals  []float64
	mcvFreqs []float64 // fraction of all rows
	mcvTotal float64
	// bounds are the equi-depth histogram bucket boundaries over the
	// non-MCV values (len = buckets+1); histFrac is the total fraction of
	// rows covered by the histogram.
	bounds   []float64
	histFrac float64
}

// Estimator implements the per-column-histogram estimator.
type Estimator struct {
	table *dataset.Table
	cols  []colStats
}

// New builds statistics for every column of t.
func New(t *dataset.Table, cfg Config) (*Estimator, error) {
	cfg.fillDefaults()
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("pghist: empty table")
	}
	e := &Estimator{table: t, cols: make([]colStats, t.NumCols())}
	n := float64(t.NumRows())
	for j, c := range t.Columns {
		vals := make([]float64, t.NumRows())
		if c.Kind == dataset.Categorical {
			for i, v := range c.Ints {
				vals[i] = float64(v)
			}
		} else {
			copy(vals, c.Floats)
		}
		sort.Float64s(vals)

		// Frequency of each distinct value (on the sorted slice).
		type vf struct {
			v float64
			f int
		}
		var freqs []vf
		for i := 0; i < len(vals); {
			k := i
			for k < len(vals) && vals[k] == vals[i] {
				k++
			}
			freqs = append(freqs, vf{vals[i], k - i})
			i = k
		}
		sort.Slice(freqs, func(a, b int) bool { return freqs[a].f > freqs[b].f })

		st := &e.cols[j]
		nMCV := cfg.MCVs
		if nMCV > len(freqs) {
			nMCV = len(freqs)
		}
		mcvSet := make(map[float64]bool, nMCV)
		for _, x := range freqs[:nMCV] {
			st.mcvVals = append(st.mcvVals, x.v)
			f := float64(x.f) / n
			st.mcvFreqs = append(st.mcvFreqs, f)
			st.mcvTotal += f
			mcvSet[x.v] = true
		}

		// Histogram over the remaining values.
		rest := vals[:0:0]
		for _, v := range vals {
			if !mcvSet[v] {
				rest = append(rest, v)
			}
		}
		st.histFrac = float64(len(rest)) / n
		if len(rest) > 0 {
			b := cfg.Buckets
			if b > len(rest) {
				b = len(rest)
			}
			st.bounds = make([]float64, b+1)
			for k := 0; k <= b; k++ {
				pos := k * (len(rest) - 1) / b
				st.bounds[k] = rest[pos]
			}
			st.bounds[b] = rest[len(rest)-1]
		}
	}
	return e, nil
}

// Name implements estimator.Estimator.
func (e *Estimator) Name() string { return "Postgres" }

// SizeBytes reports the statistics footprint.
func (e *Estimator) SizeBytes() int {
	s := 0
	for i := range e.cols {
		st := &e.cols[i]
		s += 8 * (len(st.mcvVals) + len(st.mcvFreqs) + len(st.bounds))
	}
	return s
}

// Estimate multiplies per-column selectivities (independence assumption).
func (e *Estimator) Estimate(q *query.Query) (float64, error) {
	if q.Table != e.table {
		return 0, fmt.Errorf("pghist: query targets table %q", q.Table.Name)
	}
	sel := 1.0
	for j, r := range q.Ranges {
		if r == nil {
			continue
		}
		sel *= e.columnSelectivity(j, r)
		if sel == 0 {
			return 0, nil
		}
	}
	return vecmath.Clamp(sel, 0, 1), nil
}

// columnSelectivity estimates P(column j ∈ r) from the column statistics.
func (e *Estimator) columnSelectivity(j int, r *query.Interval) float64 {
	st := &e.cols[j]
	var sel float64
	for i, v := range st.mcvVals {
		if r.Contains(v) {
			sel += st.mcvFreqs[i]
		}
	}
	sel += st.histFrac * histOverlap(st.bounds, r)
	return sel
}

// histOverlap returns the fraction of an equi-depth histogram's mass inside
// the interval, assuming uniformity within buckets.
func histOverlap(bounds []float64, r *query.Interval) float64 {
	if len(bounds) < 2 {
		return 0
	}
	nb := float64(len(bounds) - 1)
	var frac float64
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]
		if hi < r.Lo || lo > r.Hi {
			continue
		}
		if lo >= r.Lo && hi <= r.Hi {
			frac += 1
			continue
		}
		width := hi - lo
		if width <= 0 {
			// Degenerate bucket: a run of one repeated value.
			if r.Contains(lo) {
				frac += 1
			}
			continue
		}
		a := math.Max(lo, r.Lo)
		b := math.Min(hi, r.Hi)
		if b > a {
			frac += (b - a) / width
		}
	}
	return frac / nb
}
