package vecmath

import "fmt"

// Dense matmul kernels. All three are cache-blocked and register-tiled, and
// parallelize over contiguous output-row blocks via parPlan/fanOut when the
// operation is large enough (see parallel.go). Each output element is
// accumulated by a single chain of additions in exactly the reduction order
// of the straightforward triple loop, so results are bit-identical to the
// naive kernels for every block size and Parallelism setting — the
// equivalence tests in kernels_test.go enforce this property.

// kBlock is the reduction-panel height of MatMul: up to kBlock rows of b are
// reused across a whole row block of a before moving on, keeping the panel
// in cache. Reduction order per output element stays ascending in k because
// panels are visited in ascending order.
const kBlock = 256

// jBlockABT is the width of the b-row panel MatMulABT keeps warm while
// streaming rows of a past it.
const jBlockABT = 64

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and distinct from a, b.
//
// iam:noalloc
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		//lint:ignore noalloc cold shape-violation panic, never taken on the hot path
		panic(fmt.Sprintf("vecmath: matmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	nw, chunk, sem := parPlan(a.Rows, a.Cols*dst.Cols)
	if nw <= 1 {
		matMulBlock(dst, a, b, 0, a.Rows)
		return
	}
	//lint:ignore noalloc parallel-path closure, amortized over targetChunkFlops of work per helper
	fanOut(a.Rows, chunk, sem, func(lo, hi int) { matMulBlock(dst, a, b, lo, hi) })
}

// matMulBlock computes rows [lo, hi) of dst = a·b.
func matMulBlock(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
	}
	n4 := dst.Cols - dst.Cols%4
	for k0 := 0; k0 < a.Cols; k0 += kBlock {
		k1 := k0 + kBlock
		if k1 > a.Cols {
			k1 = a.Cols
		}
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for k := k0; k < k1; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j := 0; j < n4; j += 4 {
					drow[j] += av * brow[j]
					drow[j+1] += av * brow[j+1]
					drow[j+2] += av * brow[j+2]
					drow[j+3] += av * brow[j+3]
				}
				for j := n4; j < dst.Cols; j++ {
					drow[j] += av * brow[j]
				}
			}
		}
	}
}

// MatMulATB computes dst = aᵀ·b, where a is n×r and b is n×c; dst is r×c.
//
// iam:noalloc
func MatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("vecmath: matmulATB shape mismatch")
	}
	nw, chunk, sem := parPlan(dst.Rows, a.Rows*b.Cols)
	if nw <= 1 {
		matMulATBBlock(dst, a, b, 0, dst.Rows)
		return
	}
	//lint:ignore noalloc parallel-path closure, amortized over targetChunkFlops of work per helper
	fanOut(dst.Rows, chunk, sem, func(lo, hi int) { matMulATBBlock(dst, a, b, lo, hi) })
}

// matMulATBBlock computes rows [lo, hi) of dst = aᵀ·b; row i of dst reduces
// over column i of a, so splitting dst rows never splits a reduction.
func matMulATBBlock(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
	}
	c4 := b.Cols - b.Cols%4
	for n := 0; n < a.Rows; n++ {
		arow := a.Row(n)
		brow := b.Row(n)
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j := 0; j < c4; j += 4 {
				drow[j] += av * brow[j]
				drow[j+1] += av * brow[j+1]
				drow[j+2] += av * brow[j+2]
				drow[j+3] += av * brow[j+3]
			}
			for j := c4; j < b.Cols; j++ {
				drow[j] += av * brow[j]
			}
		}
	}
}

// MatMulABT computes dst = a·bᵀ, where a is n×c and b is m×c; dst is n×m.
// The inner dot product is unrolled four-wide with two output columns per
// pass — this is the hottest kernel of the neural-network engine.
//
// iam:noalloc
func MatMulABT(dst, a, b *Matrix) { MatMulABTRows(dst, a, b, nil) }

// MatMulABTRows is MatMulABT restricted to the output columns sel lists
// (row indices of b): dst[i][j] = a_i·b_j for every j in sel, and every other
// column of dst is left as it was. Each computed element accumulates through
// exactly the chain MatMulABT gives it, so a selected output is bit-identical
// to the full product's. A nil sel computes every column.
//
// iam:noalloc
func MatMulABTRows(dst, a, b *Matrix, sel []int) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("vecmath: matmulABT shape mismatch")
	}
	m := b.Rows
	if sel != nil {
		m = len(sel)
	}
	if m == 0 {
		return
	}
	nw, chunk, sem := parPlan(a.Rows, a.Cols*m)
	if nw <= 1 {
		matMulABTBlock(dst, a, b, sel, 0, a.Rows)
		return
	}
	//lint:ignore noalloc parallel-path closure, amortized over targetChunkFlops of work per helper
	fanOut(a.Rows, chunk, sem, func(lo, hi int) { matMulABTBlock(dst, a, b, sel, lo, hi) })
}

// matMulABTBlock computes rows [lo, hi) of dst = a·bᵀ, over the b rows sel
// lists (all of them when sel is nil). b is consumed in panels of jBlockABT
// selected rows that stay cache-resident while the a rows of the block
// stream past. The register tile is 2 a-rows × 2 b-rows × 4 lanes
// (sixteen accumulators): each pass over the reduction produces four output
// elements, so every load of an a or b element feeds two chains. Each
// individual output element still accumulates through the exact four-lane
// chain of the untiled kernel — the tile widens reuse, never reassociates —
// so the naive-reference bit tests hold for every tile path.
func matMulABTBlock(dst, a, b *Matrix, sel []int, lo, hi int) {
	c := a.Cols
	c4 := c - c%4
	m := b.Rows
	if sel != nil {
		m = len(sel)
	}
	for t0 := 0; t0 < m; t0 += jBlockABT {
		t1 := min(t0+jBlockABT, m)
		i := lo
		for ; i+1 < hi; i += 2 {
			arow := a.Row(i)
			crow := a.Row(i + 1)
			drow := dst.Row(i)
			erow := dst.Row(i + 1)
			t := t0
			for ; t+1 < t1; t += 2 {
				j, jn := t, t+1
				if sel != nil {
					j, jn = sel[t], sel[t+1]
				}
				b0 := b.Row(j)
				b1 := b.Row(jn)
				var p0, p1, p2, p3 float64
				var q0, q1, q2, q3 float64
				var r0, r1, r2, r3 float64
				var s0, s1, s2, s3 float64
				for k := 0; k < c4; k += 4 {
					a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
					c0, c1, c2, c3 := crow[k], crow[k+1], crow[k+2], crow[k+3]
					w0, w1, w2, w3 := b0[k], b0[k+1], b0[k+2], b0[k+3]
					v0, v1, v2, v3 := b1[k], b1[k+1], b1[k+2], b1[k+3]
					p0 += a0 * w0
					p1 += a1 * w1
					p2 += a2 * w2
					p3 += a3 * w3
					q0 += a0 * v0
					q1 += a1 * v1
					q2 += a2 * v2
					q3 += a3 * v3
					r0 += c0 * w0
					r1 += c1 * w1
					r2 += c2 * w2
					r3 += c3 * w3
					s0 += c0 * v0
					s1 += c1 * v1
					s2 += c2 * v2
					s3 += c3 * v3
				}
				p := p0 + p1 + p2 + p3
				q := q0 + q1 + q2 + q3
				r := r0 + r1 + r2 + r3
				s := s0 + s1 + s2 + s3
				for k := c4; k < c; k++ {
					a0, c0 := arow[k], crow[k]
					p += a0 * b0[k]
					q += a0 * b1[k]
					r += c0 * b0[k]
					s += c0 * b1[k]
				}
				drow[j] = p
				drow[jn] = q
				erow[j] = r
				erow[jn] = s
			}
			for ; t < t1; t++ {
				j := t
				if sel != nil {
					j = sel[t]
				}
				brow := b.Row(j)
				var p0, p1, p2, p3 float64
				var r0, r1, r2, r3 float64
				for k := 0; k < c4; k += 4 {
					w0, w1, w2, w3 := brow[k], brow[k+1], brow[k+2], brow[k+3]
					p0 += arow[k] * w0
					p1 += arow[k+1] * w1
					p2 += arow[k+2] * w2
					p3 += arow[k+3] * w3
					r0 += crow[k] * w0
					r1 += crow[k+1] * w1
					r2 += crow[k+2] * w2
					r3 += crow[k+3] * w3
				}
				p := p0 + p1 + p2 + p3
				r := r0 + r1 + r2 + r3
				for k := c4; k < c; k++ {
					p += arow[k] * brow[k]
					r += crow[k] * brow[k]
				}
				drow[j] = p
				erow[j] = r
			}
		}
		for ; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			t := t0
			for ; t+1 < t1; t += 2 {
				j, jn := t, t+1
				if sel != nil {
					j, jn = sel[t], sel[t+1]
				}
				b0 := b.Row(j)
				b1 := b.Row(jn)
				var p0, p1, p2, p3 float64
				var q0, q1, q2, q3 float64
				for k := 0; k < c4; k += 4 {
					a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
					p0 += a0 * b0[k]
					p1 += a1 * b0[k+1]
					p2 += a2 * b0[k+2]
					p3 += a3 * b0[k+3]
					q0 += a0 * b1[k]
					q1 += a1 * b1[k+1]
					q2 += a2 * b1[k+2]
					q3 += a3 * b1[k+3]
				}
				p := p0 + p1 + p2 + p3
				q := q0 + q1 + q2 + q3
				for k := c4; k < c; k++ {
					p += arow[k] * b0[k]
					q += arow[k] * b1[k]
				}
				drow[j] = p
				drow[jn] = q
			}
			for ; t < t1; t++ {
				j := t
				if sel != nil {
					j = sel[t]
				}
				brow := b.Row(j)
				var s0, s1, s2, s3 float64
				for k := 0; k < c4; k += 4 {
					s0 += arow[k] * brow[k]
					s1 += arow[k+1] * brow[k+1]
					s2 += arow[k+2] * brow[k+2]
					s3 += arow[k+3] * brow[k+3]
				}
				s := s0 + s1 + s2 + s3
				for k := c4; k < c; k++ {
					s += arow[k] * brow[k]
				}
				drow[j] = s
			}
		}
	}
}
