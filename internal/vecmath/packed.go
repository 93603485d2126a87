package vecmath

// Packed masked-linear kernel. The sampler's first ResMADE layer multiplies
// a row of concatenated per-column embeddings by a degree-masked weight
// matrix; for a concrete query most columns are wildcards whose input is the
// constant MASK embedding. Instead of multiplying those constants (or the
// mask's structural zeros) every forward, the caller packs the live columns'
// weight blocks into a contiguous panel and precomputes each wildcard
// column's contribution once per (plan, output) as a Part vector. The kernel
// then walks the column schedule in order, spending FLOPs only on live
// blocks and a single add per wildcard column.
//
// Reduction order is part of the contract: every output element is
// bias + step₀ + step₁ + … with the steps in schedule (column) order, where
// a live step contributes PackedBlockDot over its block and a wildcard step
// contributes its precomputed Part. Because Parts are themselves computed
// with PackedBlockDot over the same weight blocks, a packed forward is
// bit-identical to an all-live packed forward that is fed the MASK
// embeddings as ordinary inputs — the property the wildcard-lattice tests
// in internal/nn gate on.

// PackedStep is one column of the packed schedule. A live column has
// Width > 0 and names its block [Off, Off+Width) in both the packed input
// row and the packed weight rows (the packed layout makes the two offsets
// coincide). A wildcard column has Width == 0 and carries Part, its
// precomputed per-output contribution.
type PackedStep struct {
	Off, Width int
	Part       []float64
}

// PackedBlockDot is the canonical block reduction shared by the packed
// kernel, the Part precomputation, and the naive test references: four
// accumulator lanes over k+=4, combined left-to-right, then a scalar tail.
// It matches the per-(output, b-row) chain of matMulABTBlock exactly.
//
// iam:noalloc
func PackedBlockDot(w, x []float64) float64 {
	n := len(x)
	n4 := n - n%4
	var s0, s1, s2, s3 float64
	for k := 0; k < n4; k += 4 {
		s0 += x[k] * w[k]
		s1 += x[k+1] * w[k+1]
		s2 += x[k+2] * w[k+2]
		s3 += x[k+3] * w[k+3]
	}
	s := s0 + s1 + s2 + s3
	for k := n4; k < n; k++ {
		s += x[k] * w[k]
	}
	return s
}

// MatMulPacked computes dst[r][o] = bias[o] + Σ_steps contribution(r, o),
// with x holding the packed input rows (x.Cols == w.Cols == the packed
// dimension, which may be 0 when every column is a wildcard) and w the
// packed weight panel (one row per output). dst must be x.Rows×w.Rows. Only
// the outputs sel lists are computed — every other column of dst is left as
// it was — and each keeps the chain it has in the full product; a nil sel
// computes every output.
//
// iam:noalloc
func MatMulPacked(dst, x, w *Matrix, bias []float64, steps []PackedStep, sel []int) {
	if x.Cols != w.Cols || dst.Rows != x.Rows || dst.Cols != w.Rows || len(bias) != w.Rows {
		panic("vecmath: matmulPacked shape mismatch")
	}
	for _, st := range steps {
		if st.Width > 0 {
			if st.Off < 0 || st.Off+st.Width > w.Cols {
				panic("vecmath: packed step outside panel")
			}
		} else if len(st.Part) != w.Rows {
			panic("vecmath: packed step part length mismatch")
		}
	}
	m := w.Rows
	if sel != nil {
		m = len(sel)
	}
	if m == 0 {
		return
	}
	nw, chunk, sem := parPlan(x.Rows, w.Cols*m+m)
	if nw <= 1 {
		matMulPackedBlock(dst, x, w, bias, steps, sel, 0, x.Rows)
		return
	}
	//lint:ignore noalloc parallel-path closure, amortized over targetChunkFlops of work per helper
	fanOut(x.Rows, chunk, sem, func(lo, hi int) { matMulPackedBlock(dst, x, w, bias, steps, sel, lo, hi) })
}

// matMulPackedBlock computes rows [lo, hi) of the packed forward, over the
// outputs sel lists (all of them when sel is nil). Two outputs are produced
// per pass so each packed input element feeds two four-lane accumulator
// chains, mirroring the MatMulABT micro-kernel.
func matMulPackedBlock(dst, x, w *Matrix, bias []float64, steps []PackedStep, sel []int, lo, hi int) {
	m := w.Rows
	if sel != nil {
		m = len(sel)
	}
	for r := lo; r < hi; r++ {
		xrow := x.Row(r)
		drow := dst.Row(r)
		t := 0
		for ; t+1 < m; t += 2 {
			o, on := t, t+1
			if sel != nil {
				o, on = sel[t], sel[t+1]
			}
			w0 := w.Row(o)
			w1 := w.Row(on)
			p := bias[o]
			q := bias[on]
			for si := range steps {
				if steps[si].Width == 0 {
					part := steps[si].Part
					p += part[o]
					q += part[on]
					continue
				}
				k0 := steps[si].Off
				k1 := k0 + steps[si].Width
				k4 := k1 - steps[si].Width%4
				var p0, p1, p2, p3 float64
				var q0, q1, q2, q3 float64
				for k := k0; k < k4; k += 4 {
					x0, x1, x2, x3 := xrow[k], xrow[k+1], xrow[k+2], xrow[k+3]
					p0 += x0 * w0[k]
					p1 += x1 * w0[k+1]
					p2 += x2 * w0[k+2]
					p3 += x3 * w0[k+3]
					q0 += x0 * w1[k]
					q1 += x1 * w1[k+1]
					q2 += x2 * w1[k+2]
					q3 += x3 * w1[k+3]
				}
				ps := p0 + p1 + p2 + p3
				qs := q0 + q1 + q2 + q3
				for k := k4; k < k1; k++ {
					ps += xrow[k] * w0[k]
					qs += xrow[k] * w1[k]
				}
				p += ps
				q += qs
			}
			drow[o] = p
			drow[on] = q
		}
		for ; t < m; t++ {
			o := t
			if sel != nil {
				o = sel[t]
			}
			wo := w.Row(o)
			p := bias[o]
			for si := range steps {
				if steps[si].Width == 0 {
					p += steps[si].Part[o]
					continue
				}
				k0 := steps[si].Off
				k1 := k0 + steps[si].Width
				p += PackedBlockDot(wo[k0:k1], xrow[k0:k1])
			}
			drow[o] = p
		}
	}
}
