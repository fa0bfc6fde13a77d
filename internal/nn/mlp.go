// Package nn is the from-scratch neural-network substrate of the XS-NNQMD
// module: dense multilayer perceptrons with manual backpropagation (both
// weight gradients for training and input gradients for analytic forces),
// the Adam optimizer, and sharpness-aware minimization (SAM) — the
// Allegro-Legato robustness technique of the paper (Sec. V.A.6).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"mlmd/internal/linalg"
)

// Activation selects the nonlinearity between layers.
type Activation int

const (
	// Tanh is the classic saturating activation.
	Tanh Activation = iota
	// SiLU is x·sigmoid(x) (a.k.a. swish), used by modern force fields.
	SiLU
	// Linear applies no nonlinearity (output layers).
	Linear
)

func actFn(a Activation, x float64) (y, dy float64) {
	switch a {
	case Tanh:
		y = math.Tanh(x)
		return y, 1 - y*y
	case SiLU:
		return linalg.SiLU(x)
	default:
		return x, 1
	}
}

// MLP is a fully connected network with one activation on every hidden
// layer and a linear output.
type MLP struct {
	Sizes []int // e.g. [in, h1, h2, out]
	Act   Activation
	// W[l] is Sizes[l+1]×Sizes[l] row-major; B[l] has length Sizes[l+1].
	W [][]float64
	B [][]float64
}

// NewMLP builds an MLP with Glorot-scaled random weights.
func NewMLP(sizes []int, act Activation, seed int64) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: need at least input and output sizes, got %v", sizes)
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("nn: layer size %d must be >= 1", s)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{Sizes: append([]int(nil), sizes...), Act: act}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2.0 / float64(in+out))
		for i := range w {
			w[i] = scale * rng.NormFloat64()
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m, nil
}

// NumWeights returns the total number of trainable parameters.
func (m *MLP) NumWeights() int {
	n := 0
	for l := range m.W {
		n += len(m.W[l]) + len(m.B[l])
	}
	return n
}

// Forward evaluates the network on x, returning the output vector.
func (m *MLP) Forward(x []float64) []float64 {
	cur := append([]float64(nil), x...)
	for l := range m.W {
		cur = m.layerForward(l, cur, nil, nil)
	}
	return cur
}

// layerForward computes act(W x + b); if preAct/postAct are non-nil they
// receive the pre- and post-activation values for backprop.
func (m *MLP) layerForward(l int, x []float64, preAct, postAct []float64) []float64 {
	in, out := m.Sizes[l], m.Sizes[l+1]
	if len(x) != in {
		panic(fmt.Sprintf("nn: layer %d input length %d != %d", l, len(x), in))
	}
	res := make([]float64, out)
	last := l == len(m.W)-1
	for o := 0; o < out; o++ {
		sum := m.B[l][o]
		row := m.W[l][o*in : (o+1)*in]
		for i, v := range x {
			sum += row[i] * v
		}
		if preAct != nil {
			preAct[o] = sum
		}
		if last {
			res[o] = sum
		} else {
			y, _ := actFn(m.Act, sum)
			res[o] = y
		}
		if postAct != nil {
			postAct[o] = res[o]
		}
	}
	return res
}

// Tape holds the per-layer activations of one forward pass for backprop.
// A Tape is reusable: ForwardTapeInto records over the previous pass's
// buffers, so steady-state inference (e.g. the per-atom evaluations of a
// sharded Allegro run) allocates nothing.
type Tape struct {
	inputs [][]float64 // inputs[l] is the input to layer l
	pre    [][]float64 // pre-activations of layer l
	out    []float64
	// d0/d1 are the ping-pong delta buffers of BackwardInto.
	d0, d1 []float64
}

// Out returns the first output of the taped forward pass (scalar-output
// networks).
func (t *Tape) Out() float64 { return t.out[0] }

// Outputs returns the full output vector of the taped forward pass.
func (t *Tape) Outputs() []float64 { return t.out }

// ForwardTape evaluates the network recording a fresh tape.
func (m *MLP) ForwardTape(x []float64) *Tape {
	return m.ForwardTapeInto(x, &Tape{})
}

// ForwardTapeInto evaluates the network recording onto t, reusing its
// buffers from a previous pass (they are sized on first use, so a zero
// Tape works). The arithmetic is identical to ForwardTape — only the
// buffer lifetimes differ — and t is returned for call chaining.
//
//mlmd:hotpath
func (m *MLP) ForwardTapeInto(x []float64, t *Tape) *Tape {
	if len(x) != m.Sizes[0] {
		panic(fmt.Sprintf("nn: layer 0 input length %d != %d", len(x), m.Sizes[0]))
	}
	layers := len(m.W)
	if len(t.inputs) != layers {
		t.inputs = make([][]float64, layers)
		t.pre = make([][]float64, layers)
	}
	for l := 0; l < layers; l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if len(t.inputs[l]) != in {
			t.inputs[l] = make([]float64, in)
		}
		if len(t.pre[l]) != out {
			t.pre[l] = make([]float64, out)
		}
	}
	if n := m.Sizes[layers]; len(t.out) != n {
		t.out = make([]float64, n)
	}
	copy(t.inputs[0], x)
	for l := 0; l < layers; l++ {
		dst := t.out
		if l < layers-1 {
			dst = t.inputs[l+1]
		}
		m.layerForwardInto(l, t.inputs[l], t.pre[l], dst)
	}
	return t
}

// layerForwardInto is layerForward writing into a preallocated dst (same
// arithmetic, no allocation).
//
//mlmd:hotpath
func (m *MLP) layerForwardInto(l int, x, preAct, dst []float64) {
	in, out := m.Sizes[l], m.Sizes[l+1]
	if len(x) != in {
		panic(fmt.Sprintf("nn: layer %d input length %d != %d", l, len(x), in))
	}
	last := l == len(m.W)-1
	for o := 0; o < out; o++ {
		sum := m.B[l][o]
		row := m.W[l][o*in : (o+1)*in]
		for i, v := range x {
			sum += row[i] * v
		}
		preAct[o] = sum
		if last {
			dst[o] = sum
		} else {
			y, _ := actFn(m.Act, sum)
			dst[o] = y
		}
	}
}

// Grads holds weight and bias gradients matching the MLP's shapes.
type Grads struct {
	W [][]float64
	B [][]float64
}

// NewGrads allocates zero gradients for m.
func NewGrads(m *MLP) *Grads {
	g := &Grads{}
	for l := range m.W {
		g.W = append(g.W, make([]float64, len(m.W[l])))
		g.B = append(g.B, make([]float64, len(m.B[l])))
	}
	return g
}

// Zero resets all gradients.
func (g *Grads) Zero() {
	for l := range g.W {
		for i := range g.W[l] {
			g.W[l][i] = 0
		}
		for i := range g.B[l] {
			g.B[l][i] = 0
		}
	}
}

// Backward propagates the output cotangent gOut through the taped forward
// pass, accumulating weight gradients into grads (if non-nil) and returning
// the gradient with respect to the input.
func (m *MLP) Backward(t *Tape, gOut []float64, grads *Grads) []float64 {
	dst := make([]float64, m.Sizes[0])
	return m.BackwardInto(t, gOut, grads, dst)
}

// BackwardInto is Backward writing the input gradient into dst (length
// Sizes[0]) and reusing the tape's delta scratch, so steady-state
// backpropagation allocates nothing. The arithmetic is identical to
// Backward; dst is returned.
//
//mlmd:hotpath
func (m *MLP) BackwardInto(t *Tape, gOut []float64, grads *Grads, dst []float64) []float64 {
	width := 0
	for _, s := range m.Sizes {
		if s > width {
			width = s
		}
	}
	if cap(t.d0) < width {
		t.d0 = make([]float64, width)
		t.d1 = make([]float64, width)
	}
	delta := t.d0[:len(gOut)]
	spare := t.d1
	copy(delta, gOut)
	for l := len(m.W) - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		last := l == len(m.W)-1
		// δ ← δ ⊙ act'(pre) for hidden layers.
		if !last {
			for o := 0; o < out; o++ {
				_, d := actFn(m.Act, t.pre[l][o])
				delta[o] *= d
			}
		}
		if grads != nil {
			for o := 0; o < out; o++ {
				gw := grads.W[l][o*in : (o+1)*in]
				xo := t.inputs[l]
				d := delta[o]
				for i := range gw {
					gw[i] += d * xo[i]
				}
				grads.B[l][o] += d
			}
		}
		// Input gradient: Wᵀ δ.
		next := spare[:in]
		for i := range next {
			next[i] = 0
		}
		for o := 0; o < out; o++ {
			row := m.W[l][o*in : (o+1)*in]
			d := delta[o]
			for i := range row {
				next[i] += d * row[i]
			}
		}
		spare = delta[:cap(delta)]
		delta = next
	}
	copy(dst[:m.Sizes[0]], delta)
	return dst[:m.Sizes[0]]
}

// Clone returns a deep copy.
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...), Act: m.Act}
	for l := range m.W {
		c.W = append(c.W, append([]float64(nil), m.W[l]...))
		c.B = append(c.B, append([]float64(nil), m.B[l]...))
	}
	return c
}

// Params flattens all parameters into a single slice view operation: it
// copies into dst (length NumWeights) and returns it.
func (m *MLP) Params(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.NumWeights())
	}
	k := 0
	for l := range m.W {
		k += copy(dst[k:], m.W[l])
		k += copy(dst[k:], m.B[l])
	}
	return dst
}

// SetParams loads parameters from a flat slice (inverse of Params).
func (m *MLP) SetParams(src []float64) {
	k := 0
	for l := range m.W {
		k += copy(m.W[l], src[k:k+len(m.W[l])])
		k += copy(m.B[l], src[k:k+len(m.B[l])])
	}
}
