package nn

import (
	"fmt"
	"math/rand"

	"iam/internal/vecmath"
)

// MLP is a plain fully connected network with ReLU hidden activations and a
// linear output, used by the query-driven baselines (MSCN). It reuses the
// masked-linear machinery with all-ones masks.
type MLP struct {
	dims   []int
	layers []*maskedLinear
	step   int
	// MLP training is single-threaded (the query-driven baselines), so the
	// network owns one gradient accumulator and backward scratch per layer
	// instead of the per-session accumulators ResMADE uses.
	grads []layerGrads
	gtmp  []*vecmath.Matrix
}

// NewMLP builds a network with the given layer dimensions
// [in, h1, …, out].
func NewMLP(dims []int, seed int64) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least input and output dims")
	}
	for i, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("nn: MLP layer %d has width %d", i, d)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{dims: append([]int(nil), dims...)}
	for i := 0; i+1 < len(dims); i++ {
		mask := vecmath.NewMatrix(dims[i+1], dims[i])
		for j := range mask.Data {
			mask.Data[j] = 1
		}
		m.layers = append(m.layers, newMaskedLinear(dims[i], dims[i+1], mask, rng))
		m.grads = append(m.grads, layerGrads{
			dw: vecmath.NewMatrix(dims[i+1], dims[i]),
			db: make([]float64, dims[i+1]),
		})
		m.gtmp = append(m.gtmp, vecmath.NewMatrix(dims[i+1], dims[i]))
	}
	return m, nil
}

// InDim and OutDim expose the input/output widths.
func (m *MLP) InDim() int { return m.dims[0] }

// OutDim returns the output width.
func (m *MLP) OutDim() int { return m.dims[len(m.dims)-1] }

// ParamCount returns the number of parameters.
func (m *MLP) ParamCount() int {
	n := 0
	for _, l := range m.layers {
		n += l.in*l.out + l.out
	}
	return n
}

// SizeBytes reports float32-equivalent storage.
func (m *MLP) SizeBytes() int { return 4 * m.ParamCount() }

// MLPState holds batch activations for one forward/backward pair.
type MLPState struct {
	maxBatch int
	B        int
	x        []*vecmath.Matrix // x[0] = input copy, x[i+1] = layer i output
	pre      []*vecmath.Matrix // hidden-layer pre-activations (not the linear output's)
	dx       []*vecmath.Matrix
}

// NewState allocates activation buffers for batches up to maxBatch.
func (m *MLP) NewState(maxBatch int) *MLPState {
	st := &MLPState{maxBatch: maxBatch}
	st.x = append(st.x, vecmath.NewMatrix(maxBatch, m.dims[0]))
	st.dx = append(st.dx, vecmath.NewMatrix(maxBatch, m.dims[0]))
	for _, l := range m.layers[:len(m.layers)-1] {
		st.pre = append(st.pre, vecmath.NewMatrix(maxBatch, l.out))
	}
	for _, l := range m.layers {
		st.x = append(st.x, vecmath.NewMatrix(maxBatch, l.out))
		st.dx = append(st.dx, vecmath.NewMatrix(maxBatch, l.out))
	}
	return st
}

// Forward runs the batch in (B×InDim) through the network.
func (m *MLP) Forward(st *MLPState, in *vecmath.Matrix) {
	if in.Rows > st.maxBatch {
		// Per-batch hot path: an oversized batch is a programmer error, and an
		// error return would poison every training inner loop.
		panic(fmt.Sprintf("nn: MLP batch %d exceeds state max %d", in.Rows, st.maxBatch))
	}
	st.B = in.Rows
	copy(vecmath.View(st.x[0], st.B).Data, in.Data)
	cur := vecmath.View(st.x[0], st.B)
	last := len(m.layers) - 1
	for li, l := range m.layers {
		next := vecmath.View(st.x[li+1], st.B)
		if li == last {
			l.forward(next, cur) // linear output
		} else {
			l.forwardReLU(next, cur, vecmath.View(st.pre[li], st.B), nil)
		}
		cur = next
	}
}

// Output returns the network output of the current batch (B×OutDim),
// aliasing state memory.
func (m *MLP) Output(st *MLPState) *vecmath.Matrix {
	return vecmath.View(st.x[len(st.x)-1], st.B)
}

// Backward accumulates gradients given dL/dOut; when dIn is non-nil the
// input gradient is written there (B×InDim).
func (m *MLP) Backward(st *MLPState, dOut, dIn *vecmath.Matrix) {
	b := st.B
	dcur := vecmath.View(st.dx[len(st.dx)-1], b)
	copy(dcur.Data, dOut.Data[:b*m.OutDim()])
	last := len(m.layers) - 1
	for li := last; li >= 0; li-- {
		l := m.layers[li]
		if li != last {
			pre := vecmath.View(st.pre[li], b)
			for i := range dcur.Data[:b*l.out] {
				if pre.Data[i] <= 0 {
					dcur.Data[i] = 0
				}
			}
		}
		dprev := vecmath.View(st.dx[li], b)
		l.backward(dprev, dcur, vecmath.View(st.x[li], b), &m.grads[li], m.gtmp[li])
		dcur = dprev
	}
	if dIn != nil {
		copy(dIn.Data[:b*m.InDim()], dcur.Data[:b*m.InDim()])
	}
}

// ZeroGrad clears accumulated gradients.
func (m *MLP) ZeroGrad() {
	for i := range m.grads {
		m.grads[i].dw.Zero()
		for j := range m.grads[i].db {
			m.grads[i].db[j] = 0
		}
	}
}

// AdamStep applies one Adam update (scale multiplies gradients first).
func (m *MLP) AdamStep(lr, scale float64) {
	m.step++
	for i, l := range m.layers {
		l.adamStep(lr, m.step, scale, &m.grads[i])
	}
}

// Predict is a convenience single-row forward.
func (m *MLP) Predict(st *MLPState, in []float64, out []float64) {
	mat := &vecmath.Matrix{Rows: 1, Cols: len(in), Data: in}
	m.Forward(st, mat)
	copy(out, m.Output(st).Row(0))
}
