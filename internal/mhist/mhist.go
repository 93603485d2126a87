// Package mhist implements the MHIST multi-dimensional MaxDiff histogram
// baseline (paper §6.1.2, after Poosala & Ioannidis): the attribute space is
// recursively partitioned into buckets, always splitting the bucket/dimension
// with the largest adjacent-frequency difference (MaxDiff), and queries are
// estimated under the uniform-spread assumption inside each bucket — the
// assumption responsible for its large maximum errors on skewed data.
package mhist

import (
	"fmt"
	"math"
	"sort"

	"iam/internal/dataset"
	"iam/internal/query"
	"iam/internal/vecmath"
)

// Config controls histogram construction.
type Config struct {
	// Buckets is the bucket budget (default 500).
	Buckets int
}

type bucket struct {
	rows     []int // build-time row indices (released after build)
	count    int
	min, max []float64
}

// Estimator is the built histogram.
type Estimator struct {
	table   *dataset.Table
	buckets []bucket
	values  [][]float64 // column-major raw values (build-time view)
}

// New builds the MaxDiff histogram.
func New(t *dataset.Table, cfg Config) (*Estimator, error) {
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("mhist: empty table")
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 500
	}
	d := t.NumCols()
	e := &Estimator{table: t, values: make([][]float64, d)}
	for j, c := range t.Columns {
		col := make([]float64, t.NumRows())
		if c.Kind == dataset.Categorical {
			for i, v := range c.Ints {
				col[i] = float64(v)
			}
		} else {
			copy(col, c.Floats)
		}
		e.values[j] = col
	}

	all := make([]int, t.NumRows())
	for i := range all {
		all[i] = i
	}
	e.buckets = []bucket{e.makeBucket(all)}

	for len(e.buckets) < cfg.Buckets {
		bi, dim, split, ok := e.bestSplit()
		if !ok {
			break
		}
		e.split(bi, dim, split)
	}
	// Release build-time row lists.
	for i := range e.buckets {
		e.buckets[i].rows = nil
	}
	e.values = nil
	return e, nil
}

func (e *Estimator) makeBucket(rows []int) bucket {
	d := len(e.values)
	b := bucket{rows: rows, count: len(rows), min: make([]float64, d), max: make([]float64, d)}
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		col := e.values[j]
		for _, r := range rows {
			v := col[r]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		b.min[j], b.max[j] = lo, hi
	}
	return b
}

// bestSplit finds the bucket/dimension/value with the largest MaxDiff.
// The scan is restricted to the few most populous buckets to bound cost.
func (e *Estimator) bestSplit() (bi, dim int, split float64, ok bool) {
	// Candidate buckets: top 4 by count.
	type cand struct{ idx, count int }
	cands := make([]cand, 0, len(e.buckets))
	for i := range e.buckets {
		if e.buckets[i].count > 1 {
			cands = append(cands, cand{i, e.buckets[i].count})
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].count > cands[b].count })
	if len(cands) > 4 {
		cands = cands[:4]
	}
	bestDiff := -1.0
	for _, c := range cands {
		b := &e.buckets[c.idx]
		for j := range e.values {
			diff, at, valid := maxDiffSplit(e.values[j], b.rows)
			if valid && diff > bestDiff {
				bestDiff, bi, dim, split, ok = diff, c.idx, j, at, true
			}
		}
	}
	return bi, dim, split, ok
}

// maxDiffSplit returns the largest adjacent frequency difference along one
// dimension and the split value (rows with value ≤ split go left).
func maxDiffSplit(col []float64, rows []int) (diff, split float64, ok bool) {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = col[r]
	}
	sort.Float64s(vals)
	// Distinct values with frequencies.
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
	if len(freqs) < 2 {
		return 0, 0, false
	}
	best := -1.0
	at := 0
	for i := 0; i+1 < len(freqs); i++ {
		d := math.Abs(float64(freqs[i+1].f - freqs[i].f))
		if d > best {
			best, at = d, i
		}
	}
	// Tie-break toward the median position for balance.
	if best == 0 {
		at = len(freqs)/2 - 1
	}
	return best, freqs[at].v, true
}

func (e *Estimator) split(bi, dim int, split float64) {
	b := e.buckets[bi]
	col := e.values[dim]
	var left, right []int
	for _, r := range b.rows {
		if col[r] <= split {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		// Degenerate split; mark as unsplittable by clearing rows.
		e.buckets[bi].rows = nil
		e.buckets[bi].count = b.count
		return
	}
	e.buckets[bi] = e.makeBucket(left)
	e.buckets = append(e.buckets, e.makeBucket(right))
}

// Name implements estimator.Estimator.
func (e *Estimator) Name() string { return "MHIST" }

// SizeBytes reports the bucket storage (count + per-dim bounds).
func (e *Estimator) SizeBytes() int {
	d := e.table.NumCols()
	return len(e.buckets) * 8 * (1 + 2*d)
}

// Estimate sums per-bucket contributions under uniform spread.
func (e *Estimator) Estimate(q *query.Query) (float64, error) {
	if q.Table != e.table {
		return 0, fmt.Errorf("mhist: query targets table %q", q.Table.Name)
	}
	n := float64(e.table.NumRows())
	var total float64
	for i := range e.buckets {
		b := &e.buckets[i]
		frac := 1.0
		for j, r := range q.Ranges {
			if r == nil {
				continue
			}
			frac *= overlapFraction(b.min[j], b.max[j], r)
			if frac == 0 {
				break
			}
		}
		total += float64(b.count) / n * frac
	}
	return vecmath.Clamp(total, 0, 1), nil
}

// overlapFraction is the uniform-spread fraction of [bmin, bmax] inside r.
func overlapFraction(bmin, bmax float64, r *query.Interval) float64 {
	if bmax < r.Lo || bmin > r.Hi {
		return 0
	}
	width := bmax - bmin
	if width <= 0 {
		if r.Contains(bmin) {
			return 1
		}
		return 0
	}
	a := math.Max(bmin, r.Lo)
	b := math.Min(bmax, r.Hi)
	if b <= a {
		return 0
	}
	return (b - a) / width
}
