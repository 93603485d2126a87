package nn

import (
	"math"
	"testing"
)

// sameBits reports whether two captured states hold bit-identical values.
func sameBits(a, b *TrainState) bool {
	eq := func(x, y [][]float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if len(x[i]) != len(y[i]) {
				return false
			}
			for j := range x[i] {
				if math.Float64bits(x[i][j]) != math.Float64bits(y[i][j]) {
					return false
				}
			}
		}
		return true
	}
	return a.Step == b.Step &&
		eq(a.Embeds, b.Embeds) && eq(a.DEmbedM, b.DEmbedM) && eq(a.DEmbedV, b.DEmbedV) &&
		eq(a.Weights, b.Weights) && eq(a.Biases, b.Biases) &&
		eq(a.WM, b.WM) && eq(a.WV, b.WV) && eq(a.BM, b.BM) && eq(a.BV, b.BV)
}

// TestRestoreStateRejectsMalformed: a state whose slice counts or lengths do
// not match the network is rejected with an error instead of a panic, and
// the rejected restore leaves every parameter and moment bit-identical, even
// when the bad slice is one of the last ones checked.
func TestRestoreStateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(st *TrainState) *TrainState
	}{
		{"nil state", func(*TrainState) *TrainState { return nil }},
		{"Biases cut to one entry", func(st *TrainState) *TrainState { st.Biases = st.Biases[:1]; return st }},
		{"nil WM", func(st *TrainState) *TrainState { st.WM = nil; return st }},
		{"nil DEmbedM", func(st *TrainState) *TrainState { st.DEmbedM = nil; return st }},
		{"short DEmbedV entry", func(st *TrainState) *TrainState { st.DEmbedV[1] = st.DEmbedV[1][1:]; return st }},
		{"extra Weights entry", func(st *TrainState) *TrainState { st.Weights = append(st.Weights, nil); return st }},
		{"short last Biases entry", func(st *TrainState) *TrainState {
			last := len(st.Biases) - 1
			st.Biases[last] = st.Biases[last][1:]
			return st
		}},
		{"short last BV entry", func(st *TrainState) *TrainState {
			last := len(st.BV) - 1
			st.BV[last] = st.BV[last][1:]
			return st
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := smallNet(t, []int{4, 5, 3}, 70)
			// A differently seeded source, so any partial copy shows.
			src := smallNet(t, []int{4, 5, 3}, 71).CaptureState()
			src.Step = 9
			before := dst.CaptureState()
			if err := dst.RestoreState(tc.mutate(src)); err == nil {
				t.Fatal("RestoreState accepted a malformed state")
			}
			if !sameBits(before, dst.CaptureState()) {
				t.Error("rejected RestoreState modified the network")
			}
		})
	}
}
