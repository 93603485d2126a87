package vecmath

import (
	"fmt"
	"math"
)

// Dense matmul kernels. All three are cache-blocked and register-tiled, and
// parallelize over contiguous output-row blocks via parPlan/fanOut when the
// operation is large enough (see parallel.go). Each output element is
// accumulated by a single chain of additions in exactly the reduction order
// of the straightforward triple loop, so results are bit-identical to the
// naive kernels for every block size, Parallelism setting and tile path —
// the equivalence tests in kernels_test.go enforce this property on both.
// Where the CPU has AVX2 (useAVX2), MatMulABT's dot products run on
// dotTile2x4 (dotTile2x4Out where it also stores the epilogue) and
// MatMul's and MatMulATB's column blocks on axpyTile16 (kernels_amd64.s);
// Go tiles cover their edges and every other CPU. Every product in this
// package is written float64(x*y), and the AVX2 tiles multiply and add in
// separate instructions: the Go spec lets a compiler fuse x*y + z into one
// FMA, which rounds once, and arm64's does, so bits would otherwise depend
// on GOARCH. The one intended fused multiply-add is expTile's (Softmax,
// LogSumExp), a lane-wise copy of math.Exp's own FMA branch that runs only
// where math.Exp takes that branch.

// kBlock is the reduction-panel height of MatMul: up to kBlock rows of b are
// reused across a whole row block of a before moving on, keeping the panel
// in cache. Reduction order per output element stays ascending in k because
// panels are visited in ascending order.
const kBlock = 256

// jBlockABT is the width of the b-row panel MatMulABT keeps warm while
// streaming rows of a past it.
const jBlockABT = 64

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and distinct from a, b.
// dst[i][j] accumulates a[i][k]·b[k][j] in ascending k, skipping a[i][k] == ±0
// (so a ±Inf or NaN in b meets no zero), 16 columns at a time on the AVX2
// tile where the CPU has one (see matMulBlock) — the backward pass's dx = dy·W.
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

// matMulBlock computes rows [lo, hi) of dst = a·b. With AVX2 (useAVX2) and
// at least 16 columns, each row's outputs run through axpyTile16 once per
// kBlock panel, 16 at a time, the cols%16 tail through axpyTail; the Go
// loop covers narrower rows and every column on other CPUs. Either way
// dst[i][j] is one chain over ascending k that skips a[i][k] == ±0.
func matMulBlock(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
	}
	tile := useAVX2 && dst.Cols >= 16
	n4 := dst.Cols - dst.Cols%4
	for k0 := 0; k0 < a.Cols; k0 += kBlock {
		k1 := k0 + kBlock
		if k1 > a.Cols {
			k1 = a.Cols
		}
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			if tile {
				for j := 0; j+16 <= dst.Cols; j += 16 {
					axpyTile16(&drow[j], &arow[k0], 1, &b.Row(k0)[j], b.Cols, k1-k0)
				}
				axpyTail(drow, &arow[k0], 1, b.Row(k0), b.Cols, k1-k0)
				continue
			}
			for k := k0; k < k1; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				brow := b.Row(k)
				for j := 0; j < n4; j += 4 {
					drow[j] += float64(av * brow[j])
					drow[j+1] += float64(av * brow[j+1])
					drow[j+2] += float64(av * brow[j+2])
					drow[j+3] += float64(av * brow[j+3])
				}
				for j := n4; j < dst.Cols; j++ {
					drow[j] += float64(av * brow[j])
				}
			}
		}
	}
}

// MatMulATB computes dst = aᵀ·b, where a is n×r and b is n×c; dst is r×c.
// dst[i][j] accumulates a[n][i]·b[n][j] in ascending n, skipping a[n][i] == ±0,
// 16 columns at a time on the AVX2 tile where the CPU has one (see
// matMulATBBlock) — the backward pass's weight gradient dW = dyᵀ·x.
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
// over column i of a, so splitting dst rows never splits a reduction. With
// AVX2 (useAVX2) and at least 16 columns, each row's outputs run through
// axpyTile16 over all n, 16 at a time, reading column i of a with stride
// a.Cols, and the cols%16 tail through axpyTail; the Go loop covers
// narrower rows and every column on other CPUs. Either way dst[i][j] is
// one chain over ascending n that skips a[n][i] == ±0.
func matMulATBBlock(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Row(i)
		for j := range drow {
			drow[j] = 0
		}
	}
	if useAVX2 && a.Rows > 0 && b.Cols >= 16 {
		for i := lo; i < hi; i++ {
			drow := dst.Row(i)
			for j := 0; j+16 <= b.Cols; j += 16 {
				axpyTile16(&drow[j], &a.Data[i], a.Cols, &b.Data[j], b.Cols, a.Rows)
			}
			axpyTail(drow, &a.Data[i], a.Cols, b.Data, b.Cols, a.Rows)
		}
		return
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
				drow[j] += float64(av * brow[j])
				drow[j+1] += float64(av * brow[j+1])
				drow[j+2] += float64(av * brow[j+2])
				drow[j+3] += float64(av * brow[j+3])
			}
			for j := c4; j < b.Cols; j++ {
				drow[j] += float64(av * brow[j])
			}
		}
	}
}

// axpyTail finishes the len(drow)%16 columns that drow's 16-wide
// axpyTile16 blocks leave, len(drow) ≥ 16: one more tile over the last 16
// columns, b's row starting at column 0 as brow, accumulated into a copy of
// them, of which only the tail is written back. The copy's other lanes
// already hold this step's sums and would take a's products twice.
func axpyTail(drow []float64, a *float64, as int, brow []float64, bs, n int) {
	r := len(drow) % 16
	if r == 0 {
		return
	}
	w := len(drow) - 16
	var t [16]float64
	copy(t[:], drow[w:])
	axpyTile16(&t[0], a, as, &brow[w], bs, n)
	copy(drow[len(drow)-r:], t[16-r:])
}

// MatMulABT computes dst = a·bᵀ, where a is n×c and b is m×c; dst is n×m.
// Each dot product runs as four lane chains over k in steps of 4, on a
// 2 × 4 AVX2 tile where the CPU has one and a 1 × 2 Go tile otherwise (see
// matMulABTBlock) — this is the hottest kernel of the neural-network engine.
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
func MatMulABTRows(dst, a, b *Matrix, sel []int) { matMulABT(dst, a, b, sel, Epilogue{}) }

// Epilogue is the store of a fused hidden layer (MatMulABTReLU). With p the
// product a_i·b_j and v = p + Bias[j], the kernel stores
//
//	dst[i][j] = ReLU(v)             without a residual,
//	dst[i][j] = v > 0 ? v + r : r   with r = Res[i][j],
//
// and, when Pre is non-nil, Pre[i][j] = v (the pre-activation a backward
// pass gates on). The select is a bit mask (PosMask), so NaN and −0
// pre-activations give +0 (or r) exactly as the branch would.
type Epilogue struct {
	Bias     []float64 // one per output column; required
	Res, Pre *Matrix   // optional, shaped like dst
}

// MatMulABTReLU is MatMulABTRows with the store replaced by ep: each selected
// element is accumulated through exactly MatMulABT's chain, then gets the
// same p + Bias[j] and the same select a separate bias pass and ReLU would
// give it, inside the tile that computed it (and so inside the parallel
// fan-out). Unselected columns of dst and ep.Pre are left as they were.
//
// iam:noalloc
func MatMulABTReLU(dst, a, b *Matrix, sel []int, ep Epilogue) {
	if len(ep.Bias) != dst.Cols || !sameShape(ep.Res, dst) || !sameShape(ep.Pre, dst) {
		panic("vecmath: matmulABTReLU epilogue shape mismatch")
	}
	matMulABT(dst, a, b, sel, ep)
}

// sameShape reports whether m is nil or shaped like dst.
func sameShape(m, dst *Matrix) bool {
	return m == nil || (m.Rows == dst.Rows && m.Cols == dst.Cols)
}

// matMulABT is the one entry behind MatMulABTRows and MatMulABTReLU; a nil
// ep.Bias selects the plain store.
func matMulABT(dst, a, b *Matrix, sel []int, ep Epilogue) {
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
		matMulABTBlock(dst, a, b, sel, ep, 0, a.Rows)
		return
	}
	//lint:ignore noalloc parallel-path closure, amortized over targetChunkFlops of work per helper
	fanOut(a.Rows, chunk, sem, func(lo, hi int) { matMulABTBlock(dst, a, b, sel, ep, lo, hi) })
}

// PosMask returns all ones when v > 0 and zero otherwise — for NaN, ±0 and
// every negative — without a branch: on amd64 the comparison compiles to
// UCOMISD + SETHI + NEG, not a jump, so the ~50/50 signs of pre-activations
// cost no mispredictions. ReLU(v) is Float64bits(v) & PosMask(v); math.Max
// would propagate NaN.
//
// iam:noalloc
func PosMask(v float64) uint64 {
	var b uint64
	if v > 0 {
		b = 1
	}
	return -b
}

// ReLU returns v when v > 0 and +0 otherwise (NaN and −0 included).
//
// iam:noalloc
func ReLU(v float64) float64 { return math.Float64frombits(math.Float64bits(v) & PosMask(v)) }

// ReLUInPlace sets every element of x to ReLU of it, four at a time on
// AVX2 with the same bit mask.
//
// iam:noalloc
func ReLUInPlace(x []float64) {
	i := 0
	if useAVX2 {
		reluTile(x)
		i = len(x) &^ 3
	}
	for ; i < len(x); i++ {
		x[i] = ReLU(x[i])
	}
}

// rowOut is one output row of matMulABTBlock: the destination row, and for
// the fused store the epilogue's rows (nil when absent) and its bias.
type rowOut struct {
	d, res, pre, bias []float64
}

// aim points o at row i of dst and of ep's matrices.
func (o *rowOut) aim(dst *Matrix, ep *Epilogue, i int) {
	o.d = dst.Row(i)
	o.bias = ep.Bias
	if ep.Res != nil {
		o.res = ep.Res.Row(i)
	}
	if ep.Pre != nil {
		o.pre = ep.Pre.Row(i)
	}
}

// put stores output element j = p, through the epilogue when there is one.
// The epilogue lives in fused so that put stays small enough to inline and
// the plain store costs no call.
func (o *rowOut) put(j int, p float64) {
	if o.bias == nil {
		o.d[j] = p
		return
	}
	o.fused(j, p)
}

// fused is the epilogue's store of element j: see Epilogue.
func (o *rowOut) fused(j int, p float64) {
	v := p + o.bias[j]
	if o.pre != nil {
		o.pre[j] = v
	}
	m := PosMask(v)
	if o.res == nil {
		o.d[j] = math.Float64frombits(math.Float64bits(v) & m)
		return
	}
	r := o.res[j]
	o.d[j] = math.Float64frombits(math.Float64bits(v+r)&m | math.Float64bits(r)&^m)
}

// matMulABTBlock computes rows [lo, hi) of dst = a·bᵀ, over the b rows sel
// lists (all of them when sel is nil). b is consumed in panels of jBlockABT
// selected rows that stay cache-resident while the a rows of the block
// stream past. Every output element accumulates through one fixed chain:
// four lanes over k in steps of 4, summed ((l0+l1)+l2)+l3, then the scalar
// tail c%4 in ascending k. The tiles widen reuse and never reassociate, so
// the naive-reference bit tests hold for every tile path. With AVX2
// (useAVX2) and c ≥ 4, rows go in pairs and b rows in quads through
// dotTile2x4, which keeps the 2 × 4 tile's eight four-lane chains in YMM
// registers; the tail, the leftover row and the leftover columns stay in
// Go. Otherwise every row runs matMulABTRow's Go tile. Every path stores
// through rowOut.put, which applies ep's epilogue when it has one, except
// a quad of contiguous columns (sel == nil) with no scalar tail (c % 4 ==
// 0): dotTile2x4Out stores it, epilogue included, four lanes at a time.
func matMulABTBlock(dst, a, b *Matrix, sel []int, ep Epilogue, lo, hi int) {
	c := a.Cols
	c4 := c - c%4
	m := b.Rows
	if sel != nil {
		m = len(sel)
	}
	pairs := useAVX2 && c4 > 0
	direct := sel == nil && c4 == c
	var o0, o1 rowOut
	for t0 := 0; t0 < m; t0 += jBlockABT {
		t1 := min(t0+jBlockABT, m)
		i := lo
		for ; pairs && i+1 < hi; i += 2 {
			a0, a1 := a.Row(i), a.Row(i+1)
			o0.aim(dst, &ep, i)
			o1.aim(dst, &ep, i+1)
			t := t0
			for ; t+3 < t1; t += 4 {
				if direct {
					dotTile2x4Out(&a0[0], &a1[0], &b.Row(t)[0], &b.Row(t + 1)[0], &b.Row(t + 2)[0], &b.Row(t + 3)[0], c, t, &o0, &o1)
					continue
				}
				js := [4]int{t, t + 1, t + 2, t + 3}
				if sel != nil {
					js = [4]int{sel[t], sel[t+1], sel[t+2], sel[t+3]}
				}
				bs := [4][]float64{b.Row(js[0]), b.Row(js[1]), b.Row(js[2]), b.Row(js[3])}
				var s [8]float64
				dotTile2x4(&a0[0], &a1[0], &bs[0][0], &bs[1][0], &bs[2][0], &bs[3][0], c4, &s)
				for q := range bs {
					brow := bs[q]
					p, r := s[q], s[4+q]
					for k := c4; k < c; k++ {
						p += float64(a0[k] * brow[k])
						r += float64(a1[k] * brow[k])
					}
					o0.put(js[q], p)
					o1.put(js[q], r)
				}
			}
			matMulABTRow(a0, b, sel, &o0, t, t1)
			matMulABTRow(a1, b, sel, &o1, t, t1)
		}
		for ; i < hi; i++ {
			o0.aim(dst, &ep, i)
			matMulABTRow(a.Row(i), b, sel, &o0, t0, t1)
		}
	}
}

// matMulABTRow is matMulABTBlock's Go tile: output row od = arow·bᵀ over
// the selected b rows [t, t1). The register tile is 1 a-row × 2 b-rows × 4
// lanes (eight accumulators): each pass over the reduction produces two
// output elements, so every load of an a element feeds two chains. A 2 × 2
// tile (sixteen accumulators) does not fit the fifteen float registers Go's
// amd64 ABI leaves free: it spilled its accumulators to the stack on every
// step and ran ~35 % slower.
func matMulABTRow(arow []float64, b *Matrix, sel []int, od *rowOut, t, t1 int) {
	c := len(arow)
	c4 := c - c%4
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
			p0 += float64(a0 * b0[k])
			p1 += float64(a1 * b0[k+1])
			p2 += float64(a2 * b0[k+2])
			p3 += float64(a3 * b0[k+3])
			q0 += float64(a0 * b1[k])
			q1 += float64(a1 * b1[k+1])
			q2 += float64(a2 * b1[k+2])
			q3 += float64(a3 * b1[k+3])
		}
		p := p0 + p1 + p2 + p3
		q := q0 + q1 + q2 + q3
		for k := c4; k < c; k++ {
			p += float64(arow[k] * b0[k])
			q += float64(arow[k] * b1[k])
		}
		od.put(j, p)
		od.put(jn, q)
	}
	for ; t < t1; t++ {
		j := t
		if sel != nil {
			j = sel[t]
		}
		brow := b.Row(j)
		var s0, s1, s2, s3 float64
		for k := 0; k < c4; k += 4 {
			s0 += float64(arow[k] * brow[k])
			s1 += float64(arow[k+1] * brow[k+1])
			s2 += float64(arow[k+2] * brow[k+2])
			s3 += float64(arow[k+3] * brow[k+3])
		}
		s := s0 + s1 + s2 + s3
		for k := c4; k < c; k++ {
			s += float64(arow[k] * brow[k])
		}
		od.put(j, s)
	}
}
