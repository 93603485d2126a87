package nn

import (
	"math"
	"math/rand"
	"testing"

	"iam/internal/testutil"
	"iam/internal/vecmath"
)

func TestMLPGradientCheck(t *testing.T) {
	m, err := NewMLP([]int{3, 5, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewState(2)
	in := vecmath.NewMatrix(2, 3)
	copy(in.Data, []float64{0.5, -1, 2, 1, 0.3, -0.7})
	target := []float64{1, 0, 0, 1}

	loss := func() float64 {
		m.Forward(st, in)
		out := m.Output(st)
		var s float64
		for i, v := range out.Data {
			d := v - target[i]
			s += d * d
		}
		return s
	}

	m.Forward(st, in)
	out := m.Output(st)
	dOut := vecmath.NewMatrix(2, 2)
	for i, v := range out.Data {
		dOut.Data[i] = 2 * (v - target[i])
	}
	m.ZeroGrad()
	m.Backward(st, dOut, nil)

	const h = 1e-6
	for li, l := range m.layers {
		for i := 0; i < len(l.w.Data); i += 3 {
			orig := l.w.Data[i]
			l.w.Data[i] = orig + h
			up := loss()
			l.w.Data[i] = orig - h
			down := loss()
			l.w.Data[i] = orig
			fd := (up - down) / (2 * h)
			if math.Abs(fd-m.grads[li].dw.Data[i]) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("layer %d w[%d]: analytic %v vs fd %v", li, i, m.grads[li].dw.Data[i], fd)
			}
		}
	}
}

func TestMLPInputGradient(t *testing.T) {
	m, err := NewMLP([]int{2, 4, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := m.NewState(1)
	in := vecmath.NewMatrix(1, 2)
	in.Data[0], in.Data[1] = 0.7, -0.2

	loss := func() float64 {
		m.Forward(st, in)
		v := m.Output(st).Data[0]
		return v * v
	}
	m.Forward(st, in)
	dOut := vecmath.NewMatrix(1, 1)
	dOut.Data[0] = 2 * m.Output(st).Data[0]
	dIn := vecmath.NewMatrix(1, 2)
	m.ZeroGrad()
	m.Backward(st, dOut, dIn)

	const h = 1e-6
	for i := 0; i < 2; i++ {
		orig := in.Data[i]
		in.Data[i] = orig + h
		up := loss()
		in.Data[i] = orig - h
		down := loss()
		in.Data[i] = orig
		fd := (up - down) / (2 * h)
		if math.Abs(fd-dIn.Data[i]) > 1e-5*(1+math.Abs(fd)) {
			t.Fatalf("dIn[%d]: analytic %v vs fd %v", i, dIn.Data[i], fd)
		}
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	m, err := NewMLP([]int{2, 16, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	st := m.NewState(4)
	in := vecmath.NewMatrix(4, 2)
	for i, x := range xs {
		copy(in.Row(i), x)
	}
	dOut := vecmath.NewMatrix(4, 1)
	rng := rand.New(rand.NewSource(4))
	_ = rng
	for it := 0; it < 3000; it++ {
		m.Forward(st, in)
		out := m.Output(st)
		for i := range ys {
			dOut.Data[i] = 2 * (out.Data[i] - ys[i])
		}
		m.ZeroGrad()
		m.Backward(st, dOut, nil)
		m.AdamStep(0.01, 0.25)
	}
	m.Forward(st, in)
	out := m.Output(st)
	for i, y := range ys {
		if math.Abs(out.Data[i]-y) > 0.2 {
			t.Fatalf("XOR not learned: f(%v) = %v, want %v", xs[i], out.Data[i], y)
		}
	}
}

func TestMLPSizes(t *testing.T) {
	m, err := NewMLP([]int{10, 20, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := 10*20 + 20 + 20*1 + 1
	if m.ParamCount() != want {
		t.Fatalf("params %d, want %d", m.ParamCount(), want)
	}
	if m.InDim() != 10 || m.OutDim() != 1 {
		t.Fatalf("dims %d/%d", m.InDim(), m.OutDim())
	}
	if _, err := NewMLP([]int{5}, 6); err == nil {
		t.Fatal("expected error for single-dim MLP")
	}
	for _, dims := range [][]int{{4, 0, 1}, {4, -1, 1}, {0, 3, 1}, {4, 3, 0}} {
		if _, err := NewMLP(dims, 6); err == nil {
			t.Fatalf("layer widths %v accepted", dims)
		}
	}
}

// TestMLPSameSeedBitIdentical: the initial weights come from the seed alone.
func TestMLPSameSeedBitIdentical(t *testing.T) {
	in := vecmath.NewMatrix(2, 3)
	copy(in.Data, []float64{0.1, -0.4, 0.7, 1, 0.2, -0.3})
	testutil.SameSeedTwice(t, func() []float64 {
		m, err := NewMLP([]int{3, 5, 2}, 11)
		if err != nil {
			t.Fatal(err)
		}
		st := m.NewState(2)
		m.Forward(st, in)
		return append([]float64(nil), m.Output(st).Data...)
	})
}
