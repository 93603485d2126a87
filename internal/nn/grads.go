package nn

import (
	"math"

	"iam/internal/vecmath"
)

// Gradient accumulators.
//
// Historically the gradient buffers lived on the network itself, which forced
// every training loop through one serialized backward/update sequence. They
// are now a standalone Grads value: each Session owns one (lazily built, so
// inference-only sessions never pay for it), any number of sessions can
// accumulate concurrently, and the data-parallel joint trainer merges
// per-shard accumulators into a master Grads with ReduceGrads in a fixed
// order before a single AdamStep. The Adam moments stay on the network —
// they are optimizer state, updated exactly once per step.

// layerGrads accumulates one maskedLinear's parameter gradients.
type layerGrads struct {
	dw *vecmath.Matrix
	db []float64
}

// Grads holds one gradient accumulator per trainable tensor of a ResMADE:
// the per-column embedding tables, the hidden layers and the output layer
// (last entry of layers). A Grads is not safe for concurrent mutation; give
// each accumulating goroutine its own and merge with ReduceGrads.
type Grads struct {
	dEmbeds []*vecmath.Matrix
	layers  []layerGrads // hidden layers in order, then the output layer

	// Pre-bound vecmath.Do tasks. A func literal handed to Do escapes (Do
	// may run it on a helper goroutine), so forming one per call would cost
	// one heap allocation per Zero/reduce on the training hot path. Binding
	// them once here keeps the steady-state batch loop allocation-free.
	zeroTask   func(i int)
	reduceTask func(i int)
	reduceSrcs []*Grads // reduce operands, parked only for reduceTask's benefit
}

// NewGrads allocates a zeroed gradient accumulator shaped for n.
func (n *ResMADE) NewGrads() *Grads {
	g := &Grads{}
	for i := range n.embeds {
		g.dEmbeds = append(g.dEmbeds, vecmath.NewMatrix(n.Cards[i]+1, n.EmbedDims[i]))
	}
	for _, l := range n.allLayers() {
		g.layers = append(g.layers, layerGrads{
			dw: vecmath.NewMatrix(l.out, l.in),
			db: make([]float64, l.out),
		})
	}
	g.zeroTask = g.zeroTensor
	g.reduceTask = g.reduceTensor
	return g
}

// tensorCount returns the number of independent tensors in g — the task
// granularity for the layer-parallel operations below.
func (g *Grads) tensorCount() int { return len(g.dEmbeds) + len(g.layers) }

// Zero clears every accumulator. Tensors are cleared in parallel on the
// vecmath worker pool; each task owns one tensor, so the result is exact
// under every Parallelism setting.
func (g *Grads) Zero() {
	vecmath.Do(g.tensorCount(), g.zeroTask)
}

// zeroTensor is the pre-bound Do task behind Zero: clear tensor i.
func (g *Grads) zeroTensor(i int) {
	if i < len(g.dEmbeds) {
		g.dEmbeds[i].Zero()
		return
	}
	lg := &g.layers[i-len(g.dEmbeds)]
	lg.dw.Zero()
	for j := range lg.db {
		lg.db[j] = 0
	}
}

// Norm returns the L2 norm of all accumulated gradients. NaN/Inf entries make
// the result non-finite, so one check covers both explosion and numeric
// corruption. The sum runs serially in tensor order — it feeds the divergence
// watchdog, which must see a deterministic value.
func (g *Grads) Norm() float64 {
	var ss float64
	for _, d := range g.dEmbeds {
		for _, v := range d.Data {
			ss += v * v
		}
	}
	for i := range g.layers {
		for _, v := range g.layers[i].dw.Data {
			ss += v * v
		}
		for _, v := range g.layers[i].db {
			ss += v * v
		}
	}
	return math.Sqrt(ss)
}

// ReduceGrads overwrites dst with the sum of srcs, accumulated strictly in
// srcs order: dst = srcs[0] + srcs[1] + … element-wise, left to right. The
// fixed order makes the merged gradient a pure function of the shard
// decomposition, not of which goroutine finished first — the keystone of the
// data-parallel trainer's bit-determinism. Tensors are merged in parallel on
// the vecmath worker pool (each task owns one tensor; within a tensor the
// source order is serial), so parallel execution is still exact. All Grads
// must be shaped for n; srcs must be non-empty.
func (n *ResMADE) ReduceGrads(dst *Grads, srcs ...*Grads) {
	dst.reduceSrcs = srcs
	vecmath.Do(dst.tensorCount(), dst.reduceTask)
	dst.reduceSrcs = nil
}

// reduceTensor is the pre-bound Do task behind ReduceGrads: overwrite
// tensor i of dst with the sum over reduceSrcs, strictly in source order.
func (g *Grads) reduceTensor(i int) {
	srcs := g.reduceSrcs
	if i < len(g.dEmbeds) {
		d := g.dEmbeds[i].Data
		copy(d, srcs[0].dEmbeds[i].Data)
		for _, s := range srcs[1:] {
			addInto(d, s.dEmbeds[i].Data)
		}
		return
	}
	li := i - len(g.dEmbeds)
	dw := g.layers[li].dw.Data
	db := g.layers[li].db
	copy(dw, srcs[0].layers[li].dw.Data)
	copy(db, srcs[0].layers[li].db)
	for _, s := range srcs[1:] {
		addInto(dw, s.layers[li].dw.Data)
		addInto(db, s.layers[li].db)
	}
}

func addInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}
