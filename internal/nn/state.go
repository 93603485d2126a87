package nn

import (
	"fmt"
)

// TrainState is a deep copy of every mutable training quantity of a ResMADE:
// parameters, Adam first/second moments, and the Adam step counter. The
// divergence watchdog rolls back to the last good TrainState after a NaN/Inf
// epoch, and checkpoints embed one so a resumed run continues with exactly
// the optimizer state an uninterrupted run would have had. All fields are
// exported so the struct gob-encodes.
type TrainState struct {
	Embeds  [][]float64
	DEmbedM [][]float64
	DEmbedV [][]float64
	// Per layer (hidden layers in order, then the output layer).
	Weights [][]float64
	Biases  [][]float64
	WM, WV  [][]float64
	BM, BV  [][]float64
	Step    int
}

// allLayers returns the hidden layers followed by the output layer. It
// allocates a fresh slice; hot paths use numLayers/layerAt instead.
func (n *ResMADE) allLayers() []*maskedLinear {
	return append(append([]*maskedLinear(nil), n.layers...), n.outLayer)
}

// numLayers counts the hidden layers plus the output layer.
func (n *ResMADE) numLayers() int { return len(n.layers) + 1 }

// layerAt indexes the hidden layers followed by the output layer without
// materializing the combined slice.
func (n *ResMADE) layerAt(i int) *maskedLinear {
	if i < len(n.layers) {
		return n.layers[i]
	}
	return n.outLayer
}

// CaptureState deep-copies the current parameters and optimizer state.
func (n *ResMADE) CaptureState() *TrainState {
	st := &TrainState{Step: n.step}
	for i := range n.embeds {
		st.Embeds = append(st.Embeds, append([]float64(nil), n.embeds[i].Data...))
		st.DEmbedM = append(st.DEmbedM, append([]float64(nil), n.mEmb[i].Data...))
		st.DEmbedV = append(st.DEmbedV, append([]float64(nil), n.vEmb[i].Data...))
	}
	for _, l := range n.allLayers() {
		st.Weights = append(st.Weights, append([]float64(nil), l.w.Data...))
		st.Biases = append(st.Biases, append([]float64(nil), l.b...))
		st.WM = append(st.WM, append([]float64(nil), l.mw.Data...))
		st.WV = append(st.WV, append([]float64(nil), l.vw.Data...))
		st.BM = append(st.BM, append([]float64(nil), l.mb...))
		st.BV = append(st.BV, append([]float64(nil), l.vb...))
	}
	return st
}

// RestoreState copies a previously captured state back into the network. The
// state must come from a structurally identical network: every slice count
// and length is checked before anything is copied, so a rejected state
// leaves the network untouched.
func (n *ResMADE) RestoreState(st *TrainState) error {
	if st == nil {
		return fmt.Errorf("nn: nil train state")
	}
	layers := n.allLayers()
	embLens := make([]int, len(n.embeds))
	for i, e := range n.embeds {
		embLens[i] = len(e.Data)
	}
	wLens, bLens := make([]int, len(layers)), make([]int, len(layers))
	for i, l := range layers {
		wLens[i], bLens[i] = len(l.w.Data), len(l.b)
	}
	for _, f := range []struct {
		name string
		got  [][]float64
		want []int
	}{
		{"Embeds", st.Embeds, embLens}, {"DEmbedM", st.DEmbedM, embLens}, {"DEmbedV", st.DEmbedV, embLens},
		{"Weights", st.Weights, wLens}, {"WM", st.WM, wLens}, {"WV", st.WV, wLens},
		{"Biases", st.Biases, bLens}, {"BM", st.BM, bLens}, {"BV", st.BV, bLens},
	} {
		if len(f.got) != len(f.want) {
			return fmt.Errorf("nn: train state has %d %s entries, network has %d", len(f.got), f.name, len(f.want))
		}
		for i, w := range f.want {
			if len(f.got[i]) != w {
				return fmt.Errorf("nn: train state %s[%d] has length %d, want %d", f.name, i, len(f.got[i]), w)
			}
		}
	}
	for i := range n.embeds {
		copy(n.embeds[i].Data, st.Embeds[i])
		copy(n.mEmb[i].Data, st.DEmbedM[i])
		copy(n.vEmb[i].Data, st.DEmbedV[i])
	}
	for i, l := range layers {
		copy(l.w.Data, st.Weights[i])
		l.zeroMasked()
		copy(l.b, st.Biases[i])
		copy(l.mw.Data, st.WM[i])
		copy(l.vw.Data, st.WV[i])
		copy(l.mb, st.BM[i])
		copy(l.vb, st.BV[i])
	}
	n.step = st.Step
	n.gen++
	return nil
}
