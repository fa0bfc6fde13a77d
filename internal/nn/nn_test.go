package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewMLPValidation(t *testing.T) {
	if _, err := NewMLP([]int{4}, Tanh, 1); err == nil {
		t.Error("single-layer spec accepted")
	}
	if _, err := NewMLP([]int{4, 0, 1}, Tanh, 1); err == nil {
		t.Error("zero-width layer accepted")
	}
	m, err := NewMLP([]int{3, 8, 1}, Tanh, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumWeights() != 3*8+8+8*1+1 {
		t.Errorf("NumWeights = %d", m.NumWeights())
	}
}

func TestParamsRoundTrip(t *testing.T) {
	m, _ := NewMLP([]int{2, 5, 3}, SiLU, 2)
	p := m.Params(nil)
	m2, _ := NewMLP([]int{2, 5, 3}, SiLU, 99)
	m2.SetParams(p)
	x := []float64{0.3, -0.7}
	y1 := m.Forward(x)
	y2 := m2.Forward(x)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("SetParams(Params) changed behaviour")
		}
	}
}

func TestWeightGradientsMatchFiniteDifference(t *testing.T) {
	for _, act := range []Activation{Tanh, SiLU} {
		m, _ := NewMLP([]int{3, 6, 4, 1}, act, 3)
		x := []float64{0.2, -0.5, 0.9}
		loss := func() float64 {
			y := m.Forward(x)
			return 0.5 * y[0] * y[0]
		}
		tape := m.ForwardTape(x)
		g := NewGrads(m)
		m.Backward(tape, []float64{tape.out[0]}, g)
		flat := make([]float64, 0, m.NumWeights())
		for l := range g.W {
			flat = append(flat, g.W[l]...)
			flat = append(flat, g.B[l]...)
		}
		p := m.Params(nil)
		h := 1e-6
		for _, idx := range []int{0, 5, 17, len(p) - 1, len(p) / 2} {
			old := p[idx]
			p[idx] = old + h
			m.SetParams(p)
			lp := loss()
			p[idx] = old - h
			m.SetParams(p)
			lm := loss()
			p[idx] = old
			m.SetParams(p)
			want := (lp - lm) / (2 * h)
			if math.Abs(flat[idx]-want) > 1e-5*math.Max(1, math.Abs(want)) {
				t.Errorf("act %v: grad[%d] = %g, want %g", act, idx, flat[idx], want)
			}
		}
	}
}

func TestAdamFitsQuadratic(t *testing.T) {
	// Fit y = 2x1 - 3x2 + 1 with a linear network.
	m, _ := NewMLP([]int{2, 1}, Linear, 5)
	opt := NewAdam(0.05)
	rng := rand.New(rand.NewSource(6))
	g := NewGrads(m)
	for epoch := 0; epoch < 2000; epoch++ {
		g.Zero()
		var loss float64
		for b := 0; b < 16; b++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			want := 2*x[0] - 3*x[1] + 1
			tape := m.ForwardTape(x)
			diff := tape.out[0] - want
			loss += 0.5 * diff * diff
			m.Backward(tape, []float64{diff}, g)
		}
		opt.Step(m, g)
		if epoch > 500 && loss < 1e-10 {
			break
		}
	}
	if w := m.W[0]; math.Abs(w[0]-2) > 0.01 || math.Abs(w[1]+3) > 0.01 {
		t.Errorf("weights = %v, want [2 -3]", m.W[0])
	}
	if math.Abs(m.B[0][0]-1) > 0.01 {
		t.Errorf("bias = %g, want 1", m.B[0][0])
	}
}

func TestMLPFitsNonlinearFunction(t *testing.T) {
	// Fit sin(2x) on [-1,1] with a small tanh net.
	m, _ := NewMLP([]int{1, 16, 16, 1}, Tanh, 7)
	opt := NewAdam(0.01)
	g := NewGrads(m)
	rng := rand.New(rand.NewSource(8))
	for epoch := 0; epoch < 6000; epoch++ {
		g.Zero()
		for b := 0; b < 32; b++ {
			x := rng.Float64()*2 - 1
			want := math.Sin(2 * x)
			tape := m.ForwardTape([]float64{x})
			diff := tape.out[0] - want
			m.Backward(tape, []float64{diff}, g)
		}
		opt.Step(m, g)
	}
	var worst float64
	for x := -1.0; x <= 1.0; x += 0.05 {
		got := m.Forward([]float64{x})[0]
		if d := math.Abs(got - math.Sin(2*x)); d > worst {
			worst = d
		}
	}
	if worst > 0.08 {
		t.Errorf("max fit error %g", worst)
	}
}

func TestSAMPerturbRestore(t *testing.T) {
	m, _ := NewMLP([]int{2, 4, 1}, Tanh, 9)
	p0 := m.Params(nil)
	x := []float64{0.5, -0.5}
	tape := m.ForwardTape(x)
	g := NewGrads(m)
	m.Backward(tape, []float64{1}, g)
	sam := NewSAM(0.1)
	sam.Perturb(m, g)
	p1 := m.Params(nil)
	var moved float64
	for i := range p0 {
		moved += (p1[i] - p0[i]) * (p1[i] - p0[i])
	}
	if math.Abs(math.Sqrt(moved)-0.1) > 1e-9 {
		t.Errorf("perturbation distance %g, want rho=0.1", math.Sqrt(moved))
	}
	sam.Restore(m)
	p2 := m.Params(nil)
	for i := range p0 {
		if p2[i] != p0[i] {
			t.Fatal("Restore did not recover parameters")
		}
	}
}

func TestSAMTrainingFindsFlatterMinimum(t *testing.T) {
	// Train the same regression twice; SAM should end at a visibly flatter
	// minimum (lower Sharpness) with comparable loss.
	build := func(seed int64) (*MLP, func(*MLP) float64, [][]float64, []float64) {
		rng := rand.New(rand.NewSource(seed))
		var xs [][]float64
		var ys []float64
		for i := 0; i < 64; i++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			xs = append(xs, x)
			ys = append(ys, math.Sin(x[0])+0.5*x[1]+0.1*rng.NormFloat64())
		}
		loss := func(m *MLP) float64 {
			var l float64
			for i, x := range xs {
				d := m.Forward(x)[0] - ys[i]
				l += 0.5 * d * d
			}
			return l / float64(len(xs))
		}
		m, _ := NewMLP([]int{2, 24, 24, 1}, Tanh, seed)
		return m, loss, xs, ys
	}
	train := func(useSAM bool) (float64, float64) {
		m, loss, xs, ys := build(11)
		opt := NewAdam(0.01)
		g := NewGrads(m)
		sam := NewSAM(0.05)
		for epoch := 0; epoch < 1200; epoch++ {
			g.Zero()
			for i, x := range xs {
				tape := m.ForwardTape(x)
				m.Backward(tape, []float64{tape.out[0] - ys[i]}, g)
			}
			if useSAM {
				sam.Perturb(m, g)
				g.Zero()
				for i, x := range xs {
					tape := m.ForwardTape(x)
					m.Backward(tape, []float64{tape.out[0] - ys[i]}, g)
				}
				sam.Restore(m)
			}
			opt.Step(m, g)
		}
		return loss(m), Sharpness(m, loss, 0.3, 8, 42)
	}
	lossPlain, sharpPlain := train(false)
	lossSAM, sharpSAM := train(true)
	t.Logf("plain: loss=%.4g sharp=%.4g | SAM: loss=%.4g sharp=%.4g",
		lossPlain, sharpPlain, lossSAM, sharpSAM)
	if lossSAM > 4*lossPlain+0.05 {
		t.Errorf("SAM loss %g much worse than plain %g", lossSAM, lossPlain)
	}
	if sharpSAM >= sharpPlain {
		t.Errorf("SAM did not flatten the minimum: %g vs %g", sharpSAM, sharpPlain)
	}
}

func TestSharpnessOfLinearModelIsTiny(t *testing.T) {
	// A linear model's quadratic loss has constant curvature; sharpness is
	// finite and the probe must not corrupt the model.
	m, _ := NewMLP([]int{2, 1}, Linear, 12)
	loss := func(mm *MLP) float64 {
		y := mm.Forward([]float64{1, 1})[0]
		return y * y
	}
	p0 := m.Params(nil)
	Sharpness(m, loss, 0.1, 4, 1)
	p1 := m.Params(nil)
	for i := range p0 {
		if p0[i] != p1[i] {
			t.Fatal("Sharpness corrupted parameters")
		}
	}
}
