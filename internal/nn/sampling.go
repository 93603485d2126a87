package nn

import (
	"fmt"

	"iam/internal/vecmath"
)

// Sampling forwards. During progressive sampling, the distribution of
// column col depends only on the codes of columns 0..col−1: the MADE masks
// cut every input of degree > col, and a column the query leaves
// unconstrained holds its MASK code. Each first-layer term is a function of
// (column c, code, unit o) alone — the dot of W₀[o, block c] with c's
// embedding of that code — so a session tabulates it once per parameter
// generation and the first layer of a sampling forward becomes one table
// row added per column < col: no embedding gather, no multiplies.
//
// Bit-identity contract: for finite parameters a sampling forward equals
// (bit-for-bit) the full-width forward whose first layer is, per unit,
// bias + Σ_c PackedBlockDot(W₀[o, block c], embed_c[code_c]) over every
// column in order, with the MASK code at each wildcard column. The table
// entries are those dots, added in the same order. The terms of columns
// ≥ col are left out: for every unit a forward at col keeps, those weights
// are masked to +0, PackedBlockDot over +0 weights is +0, and adding +0
// changes no sum except −0, which the ReLU maps to 0 either way. Against
// the dense Session.Forward the result is only tolerance-equal — the dense
// kernel reduces the whole input row in one chain — which is why every
// estimate path routes through the sampling forward: run-to-run
// determinism needs one reduction order, not two.

// sampleTable returns the session's first-layer table, rebuilding it when
// the network's parameter generation (ResMADE.gen, which every optimizer
// step, state restore and bias edit bumps) has moved since the last build.
// Row code of column c (code ≤ Cards[c], the MASK token included) starts at
// s.tabOff[c] + code·h₀ and holds PackedBlockDot(W₀[o, block c],
// embed_c[code]) for every unit o. The last column is never an input of a
// sampling forward, so it has no rows.
//
// iam:noalloc
func (s *Session) sampleTable() []float64 {
	n := s.net
	if s.tab != nil && s.tabGen == n.gen {
		return s.tab
	}
	l0 := n.layers[0]
	h0 := l0.out
	if s.tab == nil {
		//lint:ignore noalloc once per session: the table's size depends only on the network's shape
		s.tabOff = make([]int, len(n.Cards)-1)
		size := 0
		for c := range s.tabOff {
			s.tabOff[c] = size
			size += (n.Cards[c] + 1) * h0
		}
		//lint:ignore noalloc once per session, reused by every rebuild
		s.tab = make([]float64, size)
	}
	for c, off := range s.tabOff {
		lo, hi := n.embedOff[c], n.embedOff[c]+n.EmbedDims[c]
		for code := 0; code <= n.Cards[c]; code++ {
			emb := n.embeds[c].Row(code)
			row := s.tab[off+code*h0 : off+(code+1)*h0]
			for o := range row {
				row[o] = vecmath.PackedBlockDot(l0.w.Row(o)[lo:hi], emb)
			}
		}
	}
	s.tabGen = n.gen
	s.tableBuilds++
	return s.tab
}

// ForwardSampling runs the inference forward for sampling column col: the
// first layer from the session's table (bias plus one table row per column
// < col, summed densely), then the hidden layers, each computing only the
// units of degree ≤ col (the rest are exactly 0) in one fused matmul pass
// that writes the activation and no pre-activation, and the output layer
// restricted to col's logit rows (identical accumulation chains to the
// dense output layer, so the restricted logits are bit-equal to
// Session.Forward's for the same activations). The degree cut moves no
// bit: a skipped unit reaches col's logits only through masked weights,
// which are exactly zero. Only the codes of columns < col are read; a
// wildcard column must hold its MASK token there. Afterwards Dist serves
// only column col, until the next Forward or ForwardSampling.
//
// The forward is row-pure: row r's logits depend only on rows[r], never on
// the rest of the batch — the property the serving batcher and the
// batch-composition determinism tests rely on.
//
// iam:noalloc
func (s *Session) ForwardSampling(rows [][]int, col int) {
	n := s.net
	if len(rows) > s.maxBatch {
		//lint:ignore nopanic,noalloc per-batch cold path; an oversized batch is a programmer error and an error return would poison every sampling inner loop
		panic(fmt.Sprintf("nn: batch %d exceeds session max %d", len(rows), s.maxBatch))
	}
	s.B = len(rows)
	s.forwardedRows += len(rows)
	b := s.B
	tab := s.sampleTable()

	// Column col's logits read only the hidden units of degree ≤ col, and
	// those read only lower-layer units of degree ≤ col, so every other unit
	// is skipped and left at exactly 0 (see DESIGN.md §12). The first layer
	// is dense all the same: bias and table rows are summed into x[1] with
	// AddTo, ReLU is applied in place (the first layer never has a residual
	// connection: hasResidue starts at layer 1), then the skipped units are
	// zeroed. A kept unit's value is the one chain bias + t₀ + t₁ + … in
	// column order either way, and a skipped unit ends at 0 either way, so
	// the dense sum moves no bit. Every later layer is one fused matmul pass
	// (forwardReLU).
	l0 := n.layers[0]
	h0 := l0.out
	cur := vecmath.ViewInto(&s.xV[1], s.x[1], b)
	_, skip := n.cut(0, col)
	for r, row := range rows {
		dst := cur.Row(r)
		copy(dst, l0.b)
		for c := 0; c < col; c++ {
			code := row[c]
			if code < 0 || code > n.Cards[c] {
				//lint:ignore nopanic,noalloc per-row cold path; out-of-domain codes mean a corrupted encoder, not a recoverable input
				panic(fmt.Sprintf("nn: column %d code %d out of [0,%d]", c, code, n.Cards[c]))
			}
			vecmath.AddTo(dst, tab[s.tabOff[c]+code*h0:s.tabOff[c]+(code+1)*h0])
		}
		vecmath.ReLUInPlace(dst)
		for _, o := range skip {
			dst[o] = 0
		}
	}
	for li := 1; li < len(n.layers); li++ {
		keep, skip := n.cut(li, col)
		next := vecmath.ViewInto(&s.xV[li+1], s.x[li+1], b)
		for r := 0; r < b; r++ {
			nrow := next.Row(r)
			for _, o := range skip {
				nrow[o] = 0
			}
		}
		n.layers[li].forwardReLU(next, cur, nil, keep)
		cur = next
	}

	// Output layer restricted to col's logit rows: same per-logit chains as
	// the dense out-layer forward, over a row slice of the weight matrix.
	lo, hi := n.LogitRange(col)
	wsub := vecmath.ViewRowsInto(&s.outWV, n.outLayer.w, lo, hi)
	card := hi - lo
	s.logitsPV.Rows, s.logitsPV.Cols, s.logitsPV.Data = b, card, s.sampLogits[:b*card]
	vecmath.MatMulABT(&s.logitsPV, cur, wsub)
	bias := n.outLayer.b[lo:hi]
	for r := 0; r < b; r++ {
		vecmath.AddTo(s.logitsPV.Row(r), bias)
	}
	s.samplingCol = col
}
