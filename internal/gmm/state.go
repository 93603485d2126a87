package gmm

import "fmt"

// TrainerState is a deep copy of an SGDTrainer's full mutable state — the
// mixture parameters, their free-space reparameterizations, and the Adam
// moments. The joint-training watchdog rolls back to one after a divergent
// epoch, and training checkpoints embed one per GMM column so resumed runs
// continue with identical optimizer state. All fields are exported so the
// struct gob-encodes.
type TrainerState struct {
	Weights, Means, Sigmas []float64
	Logits, LogSig         []float64
	MW, VW                 []float64
	MMu, VMu               []float64
	MSig, VSig             []float64
	Step                   int
	LR, Floor              float64
}

// CaptureState deep-copies the trainer's current state.
func (t *SGDTrainer) CaptureState() *TrainerState {
	cp := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return &TrainerState{
		Weights: cp(t.Model.Weights), Means: cp(t.Model.Means), Sigmas: cp(t.Model.Sigmas),
		Logits: cp(t.logits), LogSig: cp(t.logSig),
		MW: cp(t.mW), VW: cp(t.vW),
		MMu: cp(t.mMu), VMu: cp(t.vMu),
		MSig: cp(t.mSig), VSig: cp(t.vSig),
		Step: t.step, LR: t.lr, Floor: t.floor,
	}
}

// RestoreState copies st back into the trainer (and its wrapped Model). The
// state must come from a trainer with the same component count and hold a
// valid mixture (CheckComponents): every slice is checked before anything
// is copied, so a rejected state leaves the trainer untouched.
func (t *SGDTrainer) RestoreState(st *TrainerState) error {
	if st == nil {
		return fmt.Errorf("gmm: nil trainer state")
	}
	k := t.Model.K()
	for _, f := range []struct {
		name string
		s    []float64
	}{
		{"Weights", st.Weights}, {"Means", st.Means}, {"Sigmas", st.Sigmas},
		{"Logits", st.Logits}, {"LogSig", st.LogSig},
		{"MW", st.MW}, {"VW", st.VW}, {"MMu", st.MMu}, {"VMu", st.VMu},
		{"MSig", st.MSig}, {"VSig", st.VSig},
	} {
		if len(f.s) != k {
			return fmt.Errorf("gmm: trainer state %s has %d components, model has %d", f.name, len(f.s), k)
		}
	}
	if err := CheckComponents(st.Weights, st.Means, st.Sigmas); err != nil {
		return fmt.Errorf("gmm: trainer state: %w", err)
	}
	copy(t.Model.Weights, st.Weights)
	copy(t.Model.Means, st.Means)
	copy(t.Model.Sigmas, st.Sigmas)
	copy(t.logits, st.Logits)
	copy(t.logSig, st.LogSig)
	copy(t.mW, st.MW)
	copy(t.vW, st.VW)
	copy(t.mMu, st.MMu)
	copy(t.vMu, st.VMu)
	copy(t.mSig, st.MSig)
	copy(t.vSig, st.VSig)
	t.step = st.Step
	t.lr = st.LR
	t.floor = st.Floor
	return nil
}
