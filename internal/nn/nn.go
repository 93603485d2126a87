// Package nn is a from-scratch CPU neural-network engine implementing the
// ResMADE deep autoregressive model that IAM, Naru/NeuroCard and UAE build
// on (paper §3). It provides masked linear layers with MADE degree
// constraints, residual blocks, per-column embeddings with a wildcard (MASK)
// token for Naru-style wildcard skipping, softmax cross-entropy training with
// Adam, and a Session abstraction exposing forward/backward passes so
// higher-level estimators can train end-to-end (IAM's joint loss, UAE's
// query-driven gradients).
//
// The paper trains on GPUs with PyTorch; this engine substitutes a dense
// float64 CPU implementation with identical semantics (see DESIGN.md).
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"iam/internal/vecmath"
)

// Config describes a ResMADE network over n ≥ 2 autoregressive columns.
type Config struct {
	// Cards holds the domain size of each column (after any GMM reduction
	// or factorization). The network predicts P(col_i | col_<i) in this
	// left-to-right order.
	Cards []int
	// Hidden lists hidden-layer widths. Consecutive equal widths get
	// residual connections (ResMADE). Default: [128, 64, 64, 128].
	Hidden []int
	// EmbedDim caps the per-column input embedding width. Each column uses
	// min(Card, EmbedDim) dimensions. Default 32.
	EmbedDim int
	Seed     int64
}

func (c *Config) fillDefaults() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{128, 64, 64, 128}
	}
	if c.EmbedDim <= 0 {
		c.EmbedDim = 32
	}
}

// maskedLinear is a dense layer with a binary MADE mask. Weights are stored
// pre-masked; gradients are masked before the Adam update so dead entries
// stay exactly zero.
type maskedLinear struct {
	in, out    int
	w, mask    *vecmath.Matrix // out×in
	b          []float64
	mw, vw     *vecmath.Matrix
	mb, vb     []float64
	hasResidue bool // residual connection from the previous activation
}

func newMaskedLinear(in, out int, mask *vecmath.Matrix, rng *rand.Rand) *maskedLinear {
	l := &maskedLinear{
		in: in, out: out,
		w: vecmath.NewMatrix(out, in), mask: mask,
		b:  make([]float64, out),
		mw: vecmath.NewMatrix(out, in), vw: vecmath.NewMatrix(out, in),
		mb: make([]float64, out), vb: make([]float64, out),
	}
	// He initialization scaled by the *unmasked* fan-in of each row.
	for o := 0; o < out; o++ {
		fanIn := 0
		for i := 0; i < in; i++ {
			if mask.At(o, i) != 0 {
				fanIn++
			}
		}
		if fanIn == 0 {
			continue
		}
		std := math.Sqrt(2 / float64(fanIn))
		row := l.w.Row(o)
		mrow := mask.Row(o)
		for i := range row {
			if mrow[i] != 0 {
				row[i] = rng.NormFloat64() * std
			}
		}
	}
	return l
}

// forward computes y = x·Wᵀ + b for batch x (B×in), y (B×out): the output
// layers' linear forward.
//
// iam:noalloc
func (l *maskedLinear) forward(y, x *vecmath.Matrix) {
	vecmath.MatMulABT(y, x, l.w)
	for r := 0; r < y.Rows; r++ {
		row := y.Row(r)
		for i := range row {
			row[i] += l.b[i]
		}
	}
}

// forwardReLU computes a hidden layer in one fused pass (vecmath.Epilogue):
// y = ReLU(x·Wᵀ + b), plus res when the layer has a residual connection (res
// is then its input x), over the units sel lists (every unit when sel is
// nil); pre, when non-nil, receives x·Wᵀ + b for the backward pass. The other
// columns of y and pre are left as they were.
//
// iam:noalloc
func (l *maskedLinear) forwardReLU(y, x, pre *vecmath.Matrix, sel []int) {
	var res *vecmath.Matrix
	if l.hasResidue {
		res = x
	}
	vecmath.MatMulABTReLU(y, x, l.w, sel, vecmath.Epilogue{Bias: l.b, Res: res, Pre: pre})
}

// backward accumulates parameter gradients into g and computes dx = dy·W.
// dx may be nil when the input gradient is not needed. gtmp is caller-owned
// out×in scratch for the unmasked weight gradient (reused across calls so the
// hot loop stays allocation-free).
//
// iam:noalloc
func (l *maskedLinear) backward(dx, dy, x *vecmath.Matrix, g *layerGrads, gtmp *vecmath.Matrix) {
	// dW += dyᵀ·x, masked.
	vecmath.MatMulATB(gtmp, dy, x)
	for i, m := range l.mask.Data {
		g.dw.Data[i] += gtmp.Data[i] * m
	}
	for r := 0; r < dy.Rows; r++ {
		row := dy.Row(r)
		for i, v := range row {
			g.db[i] += v
		}
	}
	if dx != nil {
		vecmath.MatMul(dx, dy, l.w)
	}
}

func (l *maskedLinear) adamStep(lr float64, step int, scale float64, g *layerGrads) {
	adamUpdate(l.w.Data, g.dw.Data, l.mw.Data, l.vw.Data, lr, step, scale)
	adamUpdate(l.b, g.db, l.mb, l.vb, lr, step, scale)
	// Re-apply the mask: numerical drift must never leak through dead edges.
	for i, m := range l.mask.Data {
		l.w.Data[i] *= m
	}
}

// zeroMasked clears every masked weight. Weights read from outside (a saved
// model, a restored state) pass through it, so dead edges are exactly zero
// whatever the source — the degree-pruned sampling forward relies on that.
func (l *maskedLinear) zeroMasked() {
	for i, m := range l.mask.Data {
		if m == 0 {
			l.w.Data[i] = 0
		}
	}
}

func (l *maskedLinear) paramCount() int {
	n := len(l.b)
	for _, m := range l.mask.Data {
		if m != 0 {
			n++
		}
	}
	return n
}

func adamUpdate(p, g, m, v []float64, lr float64, step int, scale float64) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	for i := range p {
		gi := g[i] * scale
		m[i] = beta1*m[i] + (1-beta1)*gi
		v[i] = beta2*v[i] + (1-beta2)*gi*gi
		p[i] -= lr * (m[i] / bc1) / (math.Sqrt(v[i]/bc2) + eps)
	}
}

// ResMADE is the masked autoencoder for distribution estimation with
// residual blocks.
type ResMADE struct {
	Cards     []int
	EmbedDims []int
	Hidden    []int

	embedCap   int   // EmbedDim cap used at construction (for serialization)
	inDim      int   // Σ EmbedDims
	outDim     int   // Σ Cards
	embedOff   []int // offset of column i's block in the embedded input
	logitOff   []int // offset of column i's logits in the output
	embeds     []*vecmath.Matrix
	mEmb, vEmb []*vecmath.Matrix
	layers     []*maskedLinear
	outLayer   *maskedLinear
	cuts       []unitCut // per hidden layer, for the sampling forward
	step       int
	// gen counts parameter generations: every mutation of the weights
	// (optimizer step, state restore, bias edit) bumps it, so a session's
	// first-layer sampling table can detect staleness without comparing
	// tensors. A session belongs to one network, so the generation alone
	// identifies the parameters it tabulated.
	gen int64

	// Pre-bound AdamStep task plus its per-step operands. A fresh func
	// literal per step would escape into vecmath.Do's goroutines and cost an
	// allocation every optimizer step; AdamStep is documented single-caller,
	// so parking the operands on the network is race-free.
	adamTask          func(i int)
	adamLR, adamScale float64
	adamG             *Grads
}

// MaskToken returns the input code representing "wildcard" for column i.
func (n *ResMADE) MaskToken(col int) int { return n.Cards[col] }

// hiddenDegree assigns MADE degrees to hidden units: position-cyclic in
// 1..nCols−1, identical across layers so equal-width residual connections
// respect the autoregressive masks.
func hiddenDegree(j, nCols int) int {
	if nCols <= 1 {
		return 1
	}
	return j%(nCols-1) + 1
}

// unitCut orders one hidden layer's units by MADE degree (ascending, ties by
// index), so the units of degree ≤ c — all that column c's logits read,
// through every layer — are the prefix order[:upTo[c]] and the rest are
// order[upTo[c]:].
type unitCut struct {
	order []int
	upTo  []int // upTo[c] = number of units of degree ≤ c, for each column c
}

func newUnitCut(width, nCols int) unitCut {
	u := unitCut{upTo: make([]int, nCols)}
	for d := 1; d < nCols; d++ {
		for j := 0; j < width; j++ {
			if hiddenDegree(j, nCols) == d {
				u.order = append(u.order, j)
			}
		}
		u.upTo[d] = len(u.order)
	}
	return u
}

// cut splits the units of hidden layer li into those column col's logits
// depend on (keep) and the rest (skip). Both are nil when col reads every
// unit.
//
// iam:noalloc
func (n *ResMADE) cut(li, col int) (keep, skip []int) {
	u := &n.cuts[li]
	if k := u.upTo[col]; k < len(u.order) {
		return u.order[:k], u.order[k:]
	}
	return nil, nil
}

// NewResMADE builds the network with MADE masks for cfg.Cards.
func NewResMADE(cfg Config) (*ResMADE, error) {
	cfg.fillDefaults()
	nCols := len(cfg.Cards)
	if nCols < 2 {
		return nil, fmt.Errorf("nn: ResMADE needs ≥ 2 columns, got %d", nCols)
	}
	for i, c := range cfg.Cards {
		if c < 1 {
			return nil, fmt.Errorf("nn: column %d has cardinality %d", i, c)
		}
	}
	for i, w := range cfg.Hidden {
		if w < 1 {
			return nil, fmt.Errorf("nn: hidden layer %d has width %d", i, w)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := &ResMADE{
		Cards:    append([]int(nil), cfg.Cards...),
		Hidden:   append([]int(nil), cfg.Hidden...),
		embedCap: cfg.EmbedDim,
	}
	net.EmbedDims = make([]int, nCols)
	net.embedOff = make([]int, nCols)
	net.logitOff = make([]int, nCols)
	for i, c := range cfg.Cards {
		d := c
		if d > cfg.EmbedDim {
			d = cfg.EmbedDim
		}
		net.EmbedDims[i] = d
		net.embedOff[i] = net.inDim
		net.inDim += d
		net.logitOff[i] = net.outDim
		net.outDim += c
	}

	// Embedding tables: one extra row per column for the MASK token.
	net.embeds = make([]*vecmath.Matrix, nCols)
	net.mEmb = make([]*vecmath.Matrix, nCols)
	net.vEmb = make([]*vecmath.Matrix, nCols)
	for i := range net.embeds {
		rows := cfg.Cards[i] + 1
		e := vecmath.NewMatrix(rows, net.EmbedDims[i])
		for j := range e.Data {
			e.Data[j] = rng.NormFloat64() * 0.1
		}
		net.embeds[i] = e
		net.mEmb[i] = vecmath.NewMatrix(rows, net.EmbedDims[i])
		net.vEmb[i] = vecmath.NewMatrix(rows, net.EmbedDims[i])
	}

	// Input degrees: every embedding dim of column i carries degree i+1.
	inDeg := make([]int, net.inDim)
	for i := 0; i < nCols; i++ {
		for d := 0; d < net.EmbedDims[i]; d++ {
			inDeg[net.embedOff[i]+d] = i + 1
		}
	}

	// Hidden layers.
	prevDim := net.inDim
	prevDeg := inDeg
	for li, width := range cfg.Hidden {
		deg := make([]int, width)
		for j := range deg {
			deg[j] = hiddenDegree(j, nCols)
		}
		mask := vecmath.NewMatrix(width, prevDim)
		for o := 0; o < width; o++ {
			for i := 0; i < prevDim; i++ {
				if deg[o] >= prevDeg[i] {
					mask.Set(o, i, 1)
				}
			}
		}
		l := newMaskedLinear(prevDim, width, mask, rng)
		// Residual when widths match (degrees match by construction).
		l.hasResidue = li > 0 && width == cfg.Hidden[li-1]
		net.layers = append(net.layers, l)
		net.cuts = append(net.cuts, newUnitCut(width, nCols))
		prevDim = width
		prevDeg = deg
	}

	// Output layer: logits for column i depend on hidden degrees < i+1.
	outMask := vecmath.NewMatrix(net.outDim, prevDim)
	for i := 0; i < nCols; i++ {
		for c := 0; c < cfg.Cards[i]; c++ {
			o := net.logitOff[i] + c
			for h := 0; h < prevDim; h++ {
				if i+1 > prevDeg[h] {
					outMask.Set(o, h, 1)
				}
			}
		}
	}
	net.outLayer = newMaskedLinear(prevDim, net.outDim, outMask, rng)
	return net, nil
}

// SetOutputBias overwrites the output-layer bias of one column's logits —
// used to initialize every column's head at the log marginal frequencies so
// rare values start calibrated instead of near-uniform (they would
// otherwise need thousands of gradient steps to push their logits down).
func (n *ResMADE) SetOutputBias(col int, bias []float64) error {
	lo, hi := n.LogitRange(col)
	if len(bias) != hi-lo {
		return fmt.Errorf("nn: SetOutputBias column %d expects %d values, got %d", col, hi-lo, len(bias))
	}
	copy(n.outLayer.b[lo:hi], bias)
	n.gen++
	return nil
}

// ParamCount returns the number of live (unmasked) parameters.
func (n *ResMADE) ParamCount() int {
	count := 0
	for _, e := range n.embeds {
		count += len(e.Data)
	}
	for _, l := range n.layers {
		count += l.paramCount()
	}
	count += n.outLayer.paramCount()
	return count
}

// SizeBytes reports the serialized model size assuming float32 storage,
// matching how the paper's PyTorch models are counted.
func (n *ResMADE) SizeBytes() int { return 4 * n.ParamCount() }

// NumCols returns the number of autoregressive columns.
func (n *ResMADE) NumCols() int { return len(n.Cards) }

// LogitRange returns the [lo, hi) slice bounds of column i's logits.
func (n *ResMADE) LogitRange(col int) (int, int) {
	return n.logitOff[col], n.logitOff[col] + n.Cards[col]
}

// Session holds the activation buffers for forward/backward passes with a
// fixed maximum batch size. Sessions are not safe for concurrent use; create
// one per goroutine.
type Session struct {
	net      *ResMADE
	maxBatch int
	B        int // current batch size

	// x[0] is the embedded input, x[l+1] the output of layer l, pre[l] the
	// pre-activation of hidden layer l that Backward gates on. x[0], pre and
	// the dense logits (maxBatch × Σ cards) are allocated by the first dense
	// Forward: a sampling forward reads the first-layer table, computes each
	// hidden layer's activation in one fused pass without a pre-activation,
	// and writes one column's logits into sampLogits (maxBatch × max card),
	// so sampling-only sessions hold none of them.
	x          []*vecmath.Matrix
	pre        []*vecmath.Matrix
	logits     *vecmath.Matrix
	sampLogits []float64

	// Reusable batch-view headers over the buffers above. The matmul kernels
	// may fan work out to goroutines, so their operands escape; aiming these
	// preallocated headers with vecmath.ViewInto keeps Forward allocation-free
	// where a fresh vecmath.View header per call would heap-allocate.
	xV, dxV     []vecmath.Matrix
	preV, dpreV []vecmath.Matrix
	logitsV     vecmath.Matrix

	// Sampling-forward state (ForwardSampling): logitsPV aims at sampLogits
	// with the sampling column's cardinality as stride, outWV at the
	// out-layer weight rows of that column. samplingCol is the column the
	// last forward served (−1 after a dense Forward), which is what Dist
	// dispatches on. tab is the first-layer table of the network's
	// generation tabGen (see sampleTable), tabOff each column's offset in it.
	logitsPV, outWV vecmath.Matrix
	samplingCol     int
	tab             []float64
	tabOff          []int
	tabGen          int64
	tableBuilds     int // lifetime count of sampleTable (re)builds

	rows [][]int // codes of the current forward batch (for embedding grads)
	buf  [][]int // owned storage for rows

	// Training state, allocated lazily on the first Backward/CrossEntropyGrad
	// so inference-only sessions never pay for gradient memory. grads is this
	// session's private accumulator: concurrent shards each own a session and
	// accumulate independently, then the trainer merges them with ReduceGrads.
	grads *Grads
	gtmp  []*vecmath.Matrix // per-layer out×in backward scratch (then outLayer)
	dx    []*vecmath.Matrix // backward activation gradients, shaped like x
	dpre  []*vecmath.Matrix // backward pre-activation gradients, one per hidden layer
	probs []float64         // softmax scratch for CrossEntropyGrad

	forwardedRows int // lifetime row count across Forward calls
}

// NewSession allocates buffers for batches up to maxBatch rows.
func (n *ResMADE) NewSession(maxBatch int) *Session {
	s := &Session{net: n, maxBatch: maxBatch, samplingCol: -1}
	s.x = []*vecmath.Matrix{nil}
	for _, l := range n.layers {
		s.x = append(s.x, vecmath.NewMatrix(maxBatch, l.out))
	}
	s.pre = make([]*vecmath.Matrix, len(n.layers))
	s.sampLogits = make([]float64, maxBatch*slices.Max(n.Cards))
	s.xV = make([]vecmath.Matrix, len(s.x))
	s.dxV = make([]vecmath.Matrix, len(s.x))
	s.preV = make([]vecmath.Matrix, len(s.pre))
	s.dpreV = make([]vecmath.Matrix, len(s.pre))
	s.buf = make([][]int, maxBatch)
	backing := make([]int, maxBatch*n.NumCols())
	for i := range s.buf {
		s.buf[i] = backing[i*n.NumCols() : (i+1)*n.NumCols()]
	}
	return s
}

// Forward runs the network on a batch of encoded rows. Each code may be the
// column's MaskToken to signal a wildcard input. Logits become available via
// Logits().
//
// iam:noalloc
func (s *Session) Forward(rows [][]int) {
	n := s.net
	if len(rows) > s.maxBatch {
		//lint:ignore noalloc per-batch cold path; an oversized batch is a programmer error and an error return would poison every sampling inner loop
		panic(fmt.Sprintf("nn: batch %d exceeds session max %d", len(rows), s.maxBatch))
	}
	s.B = len(rows)
	s.forwardedRows += len(rows)
	s.samplingCol = -1
	// Keep our own copy of the codes for the embedding backward pass.
	for i, r := range rows {
		copy(s.buf[i], r)
	}
	s.rows = s.buf[:s.B]

	if s.x[0] == nil {
		s.allocDense() // once per session, on the first dense Forward
	}
	x0 := vecmath.ViewInto(&s.xV[0], s.x[0], s.B)
	for r, row := range s.rows {
		dst := x0.Row(r)
		for c, code := range row {
			if code < 0 || code > n.Cards[c] {
				//lint:ignore noalloc per-row cold path; out-of-domain codes mean a corrupted encoder, not a recoverable input
				panic(fmt.Sprintf("nn: column %d code %d out of [0,%d]", c, code, n.Cards[c]))
			}
			copy(dst[n.embedOff[c]:n.embedOff[c]+n.EmbedDims[c]], n.embeds[c].Row(code))
		}
	}

	cur := x0
	for li, l := range n.layers {
		next := vecmath.ViewInto(&s.xV[li+1], s.x[li+1], s.B)
		l.forwardReLU(next, cur, vecmath.ViewInto(&s.preV[li], s.pre[li], s.B), nil)
		cur = next
	}
	n.outLayer.forward(vecmath.ViewInto(&s.logitsV, s.logits, s.B), cur)
}

// allocDense allocates the buffers only a dense Forward writes: the embedded
// input, the hidden pre-activations and the dense logits.
func (s *Session) allocDense() {
	n := s.net
	s.x[0], s.logits = vecmath.NewMatrix(s.maxBatch, n.inDim), vecmath.NewMatrix(s.maxBatch, n.outDim)
	for li, l := range n.layers {
		s.pre[li] = vecmath.NewMatrix(s.maxBatch, l.out)
	}
}

// ForwardedRows returns the cumulative number of rows this session has pushed
// through Forward. The progressive-sampling tests use it to assert that dead
// samples are dropped from the sub-batches instead of being re-forwarded.
func (s *Session) ForwardedRows() int { return s.forwardedRows }

// TableBuilds returns how many times this session has built its first-layer
// sampling table: once on the first ForwardSampling, then once per parameter
// generation. The sampler tests use it to assert that repeated estimates on
// unchanged parameters reuse the table.
func (s *Session) TableBuilds() int { return s.tableBuilds }

// Logits returns the logit slice of column col for batch row r. The slice
// aliases session memory and is valid until the next Forward.
func (s *Session) Logits(r, col int) []float64 {
	lo, hi := s.net.LogitRange(col)
	return s.logits.Row(r)[lo:hi]
}

// AllLogits exposes the full B×outDim logit matrix of the current batch.
func (s *Session) AllLogits() *vecmath.Matrix { return vecmath.View(s.logits, s.B) }

// ensureGrads lazily builds the session's gradient accumulator and backward
// scratch. Inference-only sessions (the estimate worker pool) never call it,
// so they stay as light as before the session-owned-grads refactor.
func (s *Session) ensureGrads() *Grads {
	if s.grads == nil {
		s.grads = s.net.NewGrads()
		for _, l := range s.net.allLayers() {
			s.gtmp = append(s.gtmp, vecmath.NewMatrix(l.out, l.in))
		}
		s.dx = append(s.dx, vecmath.NewMatrix(s.maxBatch, s.net.inDim))
		for _, x := range s.x[1:] {
			s.dx = append(s.dx, vecmath.NewMatrix(s.maxBatch, x.Cols))
		}
		for _, l := range s.net.layers {
			s.dpre = append(s.dpre, vecmath.NewMatrix(s.maxBatch, l.out))
		}
	}
	return s.grads
}

// Grads exposes this session's gradient accumulator (allocating it on first
// use). The returned value aliases session state: it is only coherent between
// a Backward and the next ZeroGrad, and must not be mutated concurrently with
// this session's Backward.
func (s *Session) Grads() *Grads { return s.ensureGrads() }

// ZeroGrad clears this session's accumulated gradients.
//
// iam:noalloc
func (s *Session) ZeroGrad() {
	s.ensureGrads().Zero()
}

// Backward accumulates parameter gradients for the current batch into the
// session's own Grads, given dL/dlogits (B×outDim). Call Session.ZeroGrad
// before and net.AdamStep(lr, scale, sess.Grads()) after — or merge several
// sessions' accumulators with ReduceGrads first for data-parallel training.
//
// iam:noalloc
func (s *Session) Backward(dLogits *vecmath.Matrix) {
	n := s.net
	g := s.ensureGrads()
	b := s.B
	last := len(n.layers)
	dcur := vecmath.ViewInto(&s.dxV[last], s.dx[last], b)
	n.outLayer.backward(dcur, dLogits, vecmath.ViewInto(&s.xV[last], s.x[last], b), &g.layers[last], s.gtmp[last])

	for li := len(n.layers) - 1; li >= 0; li-- {
		l := n.layers[li]
		pre := vecmath.ViewInto(&s.preV[li], s.pre[li], b)
		dpre := vecmath.ViewInto(&s.dpreV[li], s.dpre[li], b)
		// The ReLU gate: dcur where pre > 0, +0 elsewhere (NaN included) —
		// the forward's select, through the same branchless mask.
		for i, v := range pre.Data[:b*l.out] {
			dpre.Data[i] = math.Float64frombits(math.Float64bits(dcur.Data[i]) & vecmath.PosMask(v))
		}
		dprev := vecmath.ViewInto(&s.dxV[li], s.dx[li], b)
		l.backward(dprev, dpre, vecmath.ViewInto(&s.xV[li], s.x[li], b), &g.layers[li], s.gtmp[li])
		if l.hasResidue {
			// Identity path adds dcur straight through.
			for i := 0; i < b*l.in; i++ {
				dprev.Data[i] += dcur.Data[i]
			}
		}
		dcur = dprev
	}

	// Embedding gradients.
	for r, row := range s.rows {
		src := dcur.Row(r)
		for c, code := range row {
			ge := g.dEmbeds[c].Row(code)
			off := n.embedOff[c]
			for d := range ge {
				ge[d] += src[off+d]
			}
		}
	}
}

// AdamStep applies one Adam update from the accumulated gradients in g with
// the given learning rate; scale multiplies all gradients first (use
// 1/batchSize for mean loss). Tensors update in parallel on the vecmath
// worker pool — each task owns one tensor's parameters and moments, so the
// result is bit-identical under every Parallelism setting. The step counter
// and moments stay on the network: call this exactly once per optimization
// step, never concurrently.
func (n *ResMADE) AdamStep(lr, scale float64, g *Grads) {
	n.step++
	n.gen++
	if n.adamTask == nil {
		n.adamTask = n.adamTensor
	}
	n.adamLR, n.adamScale, n.adamG = lr, scale, g
	vecmath.Do(len(n.embeds)+n.numLayers(), n.adamTask)
	n.adamG = nil
}

// adamTensor is the pre-bound Do task behind AdamStep: update tensor i's
// parameters and moments from the parked operands.
func (n *ResMADE) adamTensor(i int) {
	if i < len(n.embeds) {
		adamUpdate(n.embeds[i].Data, n.adamG.dEmbeds[i].Data, n.mEmb[i].Data, n.vEmb[i].Data, n.adamLR, n.step, n.adamScale)
		return
	}
	li := i - len(n.embeds)
	n.layerAt(li).adamStep(n.adamLR, n.step, n.adamScale, &n.adamG.layers[li])
}
