package gmm

import (
	"math"
	"testing"
)

// TestRestoreStateRejectsMalformed: a trainer state with any slice whose
// length differs from the component count is rejected, and the rejected
// restore leaves the trainer's parameters and moments bit-identical.
func TestRestoreStateRejectsMalformed(t *testing.T) {
	newTrainer := func(shift float64) *SGDTrainer {
		m := &Model{
			Weights: []float64{0.2, 0.3, 0.5},
			Means:   []float64{-1 + shift, shift, 1 + shift},
			Sigmas:  []float64{0.5, 1, 2},
		}
		return NewSGDTrainer(m, 0.05)
	}
	cases := []struct {
		name   string
		mutate func(st *TrainerState) *TrainerState
	}{
		{"nil state", func(*TrainerState) *TrainerState { return nil }},
		{"short Means", func(st *TrainerState) *TrainerState { st.Means = st.Means[:2]; return st }},
		{"nil Sigmas", func(st *TrainerState) *TrainerState { st.Sigmas = nil; return st }},
		{"nil Logits", func(st *TrainerState) *TrainerState { st.Logits = nil; return st }},
		{"short MSig", func(st *TrainerState) *TrainerState { st.MSig = st.MSig[1:]; return st }},
		{"long VSig", func(st *TrainerState) *TrainerState { st.VSig = append(st.VSig, 1); return st }},
		{"short Weights", func(st *TrainerState) *TrainerState { st.Weights = st.Weights[:1]; return st }},
	}
	bits := func(st *TrainerState) []uint64 {
		var out []uint64
		for _, s := range [][]float64{st.Weights, st.Means, st.Sigmas, st.Logits, st.LogSig,
			st.MW, st.VW, st.MMu, st.VMu, st.MSig, st.VSig, {st.LR, st.Floor, float64(st.Step)}} {
			for _, v := range s {
				out = append(out, math.Float64bits(v))
			}
		}
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dst := newTrainer(0)
			src := newTrainer(3).CaptureState()
			src.Step, src.LR = 7, 0.5
			before := bits(dst.CaptureState())
			if err := dst.RestoreState(tc.mutate(src)); err == nil {
				t.Fatal("RestoreState accepted a malformed state")
			}
			after := bits(dst.CaptureState())
			if len(after) != len(before) {
				t.Fatal("rejected RestoreState changed the trainer's shape")
			}
			for i := range before {
				if before[i] != after[i] {
					t.Fatalf("rejected RestoreState modified value %d", i)
				}
			}
		})
	}
}
