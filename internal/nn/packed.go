package nn

import (
	"fmt"

	"iam/internal/vecmath"
)

// Packed sampling forwards. During progressive sampling, the distribution of
// column c depends only on the columns the query constrains among 0..c−1:
// the MADE masks cut all inputs of degree > c, and every unconstrained (or
// not-yet-sampled) column feeds the constant MASK embedding. A SamplingPlan
// bakes that structure into a packed first-layer weight panel — live columns
// keep their weight blocks, wildcard columns collapse to a precomputed
// per-unit partial — so the first-layer matmul touches only live inputs and
// the wildcards cost one add per hidden unit.
//
// Bit-identity contract: a packed forward equals (bit-for-bit) an all-live
// packed forward that is fed the MASK codes for the wildcard columns,
// because both walk the same per-column reduction chain (see
// vecmath.PackedBlockDot). Against the dense Session.Forward the result is
// only tolerance-equal — the dense kernel reduces the whole input row in one
// chain — which is why every estimate path routes through the packed
// forward: run-to-run determinism needs one reduction order, not two.

// SamplingPlan is the packed first-layer panel for one live-column set,
// valid while the network's parameters are unchanged (ParamGen). Plans are
// built once per (query prefix, parameter generation) and cached in
// ar.EstimateScratch; building one costs a copy of the live weight blocks
// plus one PackedBlockDot per (wildcard column, hidden unit).
type SamplingPlan struct {
	gen       int64
	packedDim int
	w         *vecmath.Matrix // hidden₀ × packedDim: live blocks, in column order
	steps     []vecmath.PackedStep
	liveCount int
}

// PackedDim returns the packed input width — zero when every column is a
// wildcard, in which case a forward of a single row answers for any batch.
func (p *SamplingPlan) PackedDim() int { return p.packedDim }

// ParamGen returns the network's parameter generation: any optimizer step,
// state restore, or bias edit bumps it, invalidating cached SamplingPlans.
func (n *ResMADE) ParamGen() int64 { return n.gen }

// NewSamplingPlan builds the packed panel for the given live-column set
// (live[c] == true feeds column c's real embedding; all others are folded in
// as MASK constants). len(live) must equal NumCols().
func (n *ResMADE) NewSamplingPlan(live []bool) *SamplingPlan {
	if len(live) != len(n.Cards) {
		//lint:ignore nopanic cold path; a plan over the wrong column count is a programmer error
		panic(fmt.Sprintf("nn: sampling plan over %d columns, network has %d", len(live), len(n.Cards)))
	}
	l0 := n.layers[0]
	h0 := l0.out
	p := &SamplingPlan{gen: n.gen}
	nWild := 0
	for c := range live {
		if live[c] {
			p.packedDim += n.EmbedDims[c]
			p.liveCount++
		} else {
			nWild++
		}
	}
	p.w = vecmath.NewMatrix(h0, p.packedDim)
	p.steps = make([]vecmath.PackedStep, len(live))
	partBacking := make([]float64, nWild*h0)
	off, wi := 0, 0
	for c := range live {
		d := n.EmbedDims[c]
		srcOff := n.embedOff[c]
		if live[c] {
			for o := 0; o < h0; o++ {
				copy(p.w.Row(o)[off:off+d], l0.w.Row(o)[srcOff:srcOff+d])
			}
			p.steps[c] = vecmath.PackedStep{Off: off, Width: d}
			off += d
			continue
		}
		part := partBacking[wi*h0 : (wi+1)*h0]
		maskEmb := n.embeds[c].Row(n.MaskToken(c))
		for o := 0; o < h0; o++ {
			part[o] = vecmath.PackedBlockDot(l0.w.Row(o)[srcOff:srcOff+d], maskEmb)
		}
		p.steps[c] = vecmath.PackedStep{Part: part}
		wi++
	}
	return p
}

// ForwardSampling runs the packed inference forward for sampling column col:
// packed first layer via plan, then the hidden layers, each computing only
// the units of degree ≤ col (the rest are exactly 0), and the output layer
// restricted to col's logit rows (identical accumulation chains to the dense
// output layer, so the restricted logits are bit-equal to Session.Forward's
// for the same activations). The degree cut moves no bit: a skipped unit
// reaches col's logits only through masked weights, which are exactly zero. Each wildcard column's code in rows is ignored
// — the plan's precomputed Part stands in for it. Afterwards Dist serves
// only column col, until the next Forward or ForwardSampling.
//
// The forward is row-pure: row r's logits depend only on rows[r], never on
// the rest of the batch — the property the serving batcher and the
// batch-composition determinism tests rely on.
//
// iam:noalloc
func (s *Session) ForwardSampling(rows [][]int, plan *SamplingPlan, col int) {
	n := s.net
	if len(rows) > s.maxBatch {
		//lint:ignore nopanic,noalloc per-batch cold path; an oversized batch is a programmer error and an error return would poison every sampling inner loop
		panic(fmt.Sprintf("nn: batch %d exceeds session max %d", len(rows), s.maxBatch))
	}
	if plan.gen != n.gen {
		//lint:ignore nopanic,noalloc cold path; a stale plan means a missed cache invalidation, not a recoverable input
		panic(fmt.Sprintf("nn: sampling plan of generation %d against network generation %d", plan.gen, n.gen))
	}
	s.B = len(rows)
	s.forwardedRows += len(rows)
	b := s.B

	// Gather only the live columns' embeddings, packed. The x[0] backing is
	// reused with the packed stride: ForwardSampling never coexists with a
	// dense forward's activations.
	s.xpV.Rows, s.xpV.Cols, s.xpV.Data = b, plan.packedDim, s.x[0].Data[:b*plan.packedDim]
	xp := &s.xpV
	for r, row := range rows {
		dst := xp.Row(r)
		for c := range plan.steps {
			st := &plan.steps[c]
			if st.Width == 0 {
				continue
			}
			code := row[c]
			if code < 0 || code > n.Cards[c] {
				//lint:ignore nopanic,noalloc per-row cold path; out-of-domain codes mean a corrupted encoder, not a recoverable input
				panic(fmt.Sprintf("nn: column %d code %d out of [0,%d]", c, code, n.Cards[c]))
			}
			copy(dst[st.Off:st.Off+st.Width], n.embeds[c].Row(code))
		}
	}

	// Column col's logits read only the hidden units of degree ≤ col, and
	// those read only lower-layer units of degree ≤ col, so every other unit
	// is skipped and left at exactly 0 (see DESIGN.md §12).
	pre0 := vecmath.ViewInto(&s.preV[0], s.pre[0], b)
	keep, skip := n.cut(0, col)
	vecmath.MatMulPacked(pre0, xp, plan.w, n.layers[0].b, plan.steps, keep)
	cur := vecmath.ViewInto(&s.xV[1], s.x[1], b)
	// The first layer never has a residual connection (hasResidue starts at
	// layer 1), so this is a plain ReLU.
	activate(cur, pre0, nil, keep, skip)
	for li := 1; li < len(n.layers); li++ {
		l := n.layers[li]
		keep, skip := n.cut(li, col)
		pre := vecmath.ViewInto(&s.preV[li], s.pre[li], b)
		l.forward(pre, cur, keep)
		next := vecmath.ViewInto(&s.xV[li+1], s.x[li+1], b)
		activate(next, pre, residue(l, cur), keep, skip)
		cur = next
	}

	// Output layer restricted to col's logit rows: same per-logit chains as
	// the dense out-layer forward, over a row slice of the weight matrix.
	lo, hi := n.LogitRange(col)
	wsub := vecmath.ViewRowsInto(&s.outWV, n.outLayer.w, lo, hi)
	card := hi - lo
	s.logitsPV.Rows, s.logitsPV.Cols, s.logitsPV.Data = b, card, s.logits.Data[:b*card]
	vecmath.MatMulABT(&s.logitsPV, cur, wsub)
	bias := n.outLayer.b[lo:hi]
	for r := 0; r < b; r++ {
		row := s.logitsPV.Row(r)
		for i := range row {
			row[i] += bias[i]
		}
	}
	s.samplingCol = col
}
