package nn

import (
	"math"
	"math/rand"
	"testing"

	"mlmd/internal/precision"
)

// perRowReference runs the per-row tape path over a rows×in input block,
// returning outputs (rows×outDim) and input gradients (rows×in) for the
// given per-row cotangents.
func perRowReference(m *MLP, x []float64, rows int, gOut []float64) (outs, grads []float64) {
	in := m.Sizes[0]
	outDim := m.Sizes[len(m.Sizes)-1]
	outs = make([]float64, rows*outDim)
	grads = make([]float64, rows*in)
	var t Tape
	g := make([]float64, in)
	for r := 0; r < rows; r++ {
		m.ForwardTapeInto(x[r*in:(r+1)*in], &t)
		copy(outs[r*outDim:(r+1)*outDim], t.Outputs())
		m.BackwardInto(&t, gOut[r*outDim:(r+1)*outDim], nil, g)
		copy(grads[r*in:(r+1)*in], g)
	}
	return outs, grads
}

// assertBitsEqual fails if any element of got differs bitwise from want.
func assertBitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	assertBits(t, what, got, want, false)
}

// assertBits compares got and want by Float64bits; with anyNaN, a NaN equals
// any NaN (IEEE 754 leaves the payload to the operand order).
func assertBits(t *testing.T, what string, got, want []float64, anyNaN bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s[%d]: %v (bits %x) != %v (bits %x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestBatchBitwiseMatchesPerRow is the nn-level half of the PR 7
// equivalence contract: the blocked GEMM forward/backward reproduces the
// per-row tape path bitwise over a matrix of shapes, activations and row
// counts, including non-scalar outputs and non-unit cotangents.
func TestBatchBitwiseMatchesPerRow(t *testing.T) {
	shapes := [][]int{{3, 1}, {4, 5, 1}, {16, 16, 16, 1}, {7, 11, 2}, {1, 1, 1}}
	acts := []Activation{Tanh, SiLU, Linear}
	rowCounts := []int{1, 5, 64}
	rng := rand.New(rand.NewSource(42))
	for si, sizes := range shapes {
		for _, act := range acts {
			m, err := NewMLP(sizes, act, int64(1000+si))
			if err != nil {
				t.Fatal(err)
			}
			in := sizes[0]
			outDim := sizes[len(sizes)-1]
			for _, rows := range rowCounts {
				x := make([]float64, rows*in)
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				// Exact-zero inputs: their products are added like any other.
				if rows*in > 2 {
					x[0], x[rows*in/2] = 0, 0
				}
				gOut := make([]float64, rows*outDim)
				for i := range gOut {
					gOut[i] = rng.NormFloat64()
				}
				refOut, refGrad := perRowReference(m, x, rows, gOut)
				var bt BatchTape
				m.ForwardBatchInto(x, rows, &bt)
				grad := make([]float64, rows*in)
				m.BackwardBatch(&bt, gOut, grad)
				assertBitsEqual(t, "outputs", bt.Outputs()[:rows*outDim], refOut)
				assertBitsEqual(t, "input gradients", grad, refGrad)
				// The tape survives a backward pass: a second one reads the
				// same taped derivatives.
				m.BackwardBatch(&bt, gOut, grad)
				assertBitsEqual(t, "input gradients, second pass", grad, refGrad)
			}
		}
	}
}

// TestBatchMatchesPerRowOnZerosAndNonFinite closes what used to be the
// documented exception of the blocked path: GEMM64 skips no product, so it
// agrees with the per-row loops where a skipped zero would show — a −0 bias
// under an all-zero activation row (−0 + 0·w is +0, not −0), and a zero
// activation or delta meeting an infinite or NaN weight (0·Inf is NaN).
func TestBatchMatchesPerRowOnZerosAndNonFinite(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, act := range []Activation{SiLU, Tanh, Linear} {
		m, err := NewMLP([]int{3, 4, 2}, act, 21)
		if err != nil {
			t.Fatal(err)
		}
		for l := range m.B {
			for o := range m.B[l] {
				m.B[l][o] = negZero
			}
		}
		m.W[0][1] = negZero
		const rows = 5
		x := []float64{
			0, 0, 0, // all-zero row under the −0 biases
			negZero, 0, negZero,
			0.5, -1.25, 2,
			0, 3, 0,
			-0.75, 0, 1,
		}
		gOut := []float64{1, -2, 0, 0, 0.5, 0.25, negZero, 1, 3, 0}
		check := func(what string) {
			t.Helper()
			refOut, refGrad := perRowReference(m, x, rows, gOut)
			var bt BatchTape
			m.ForwardBatchInto(x, rows, &bt)
			grad := make([]float64, rows*3)
			m.BackwardBatch(&bt, gOut, grad)
			assertBits(t, what+" outputs", bt.Outputs()[:rows*2], refOut, true)
			assertBits(t, what+" input gradients", grad, refGrad, true)
		}
		check("signed zeros:")

		// Non-finite weights against exact zeros, both passes: row 0 is all
		// zeros (forward 0·Inf), rows 1 and 4 have zero cotangents (backward).
		m.W[0][0], m.W[0][5] = math.Inf(1), math.NaN()
		m.W[1][2], m.W[1][7] = math.Inf(-1), math.Inf(1)
		check("non-finite weights:")
		var bt BatchTape
		m.ForwardBatchInto(x, rows, &bt)
		if !math.IsNaN(bt.Out(0)) {
			t.Fatalf("%v: zero row through an infinite weight gives %v, want NaN", act, bt.Out(0))
		}
	}
}

// TestBatchInputGatherPath checks the zero-copy gather entry point:
// writing rows directly into BatchInput and calling ForwardBatch matches
// ForwardBatchInto.
func TestBatchInputGatherPath(t *testing.T) {
	m, err := NewMLP([]int{6, 8, 1}, SiLU, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	const rows = 9
	x := make([]float64, rows*6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var a, b BatchTape
	m.ForwardBatchInto(x, rows, &a)
	copy(m.BatchInput(&b, rows), x)
	m.ForwardBatch(&b)
	assertBitsEqual(t, "outputs", b.Outputs()[:rows], a.Outputs()[:rows])
}

// TestBatchGradFiniteDifference validates the blocked backward pass against
// central finite differences of the blocked forward pass at float64.
func TestBatchGradFiniteDifference(t *testing.T) {
	m, err := NewMLP([]int{5, 12, 12, 1}, SiLU, 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	const rows = 4
	x := make([]float64, rows*5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var bt BatchTape
	m.ForwardBatchInto(x, rows, &bt)
	gOut := make([]float64, rows)
	for i := range gOut {
		gOut[i] = 1
	}
	grad := make([]float64, rows*5)
	m.BackwardBatch(&bt, gOut, grad)
	const h = 1e-6
	var fd BatchTape
	for k := range x {
		orig := x[k]
		x[k] = orig + h
		m.ForwardBatchInto(x, rows, &fd)
		ep := fd.Out(k / 5)
		x[k] = orig - h
		m.ForwardBatchInto(x, rows, &fd)
		em := fd.Out(k / 5)
		x[k] = orig
		want := (ep - em) / (2 * h)
		if diff := math.Abs(grad[k] - want); diff > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("grad[%d] = %g, finite difference %g (diff %g)", k, grad[k], want, diff)
		}
	}
}

// TestBatchTapeReuseAllocs pins the 0-alloc contract of the blocked path: a
// warmed BatchTape (and cotangent/gradient buffers) makes forward+backward
// allocation-free.
func TestBatchTapeReuseAllocs(t *testing.T) {
	m, err := NewMLP([]int{8, 16, 16, 1}, SiLU, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const rows = 32
	x := make([]float64, rows*8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	gOut := make([]float64, rows)
	for i := range gOut {
		gOut[i] = 1
	}
	grad := make([]float64, rows*8)
	var bt BatchTape
	m.ForwardBatchInto(x, rows, &bt) // size the buffers
	m.BackwardBatch(&bt, gOut, grad)
	allocs := testing.AllocsPerRun(50, func() {
		m.ForwardBatchInto(x, rows, &bt)
		m.BackwardBatch(&bt, gOut, grad)
	})
	if allocs != 0 {
		t.Fatalf("blocked forward+backward allocates %.1f/op in steady state, want 0", allocs)
	}
}

// TestMixedBatchTracksFloat64 bounds the mixed-precision path against the
// float64 reference: FP32 and the BF16x3 split ladder must track the exact
// outputs and input gradients to single-precision-level relative error.
func TestMixedBatchTracksFloat64(t *testing.T) {
	m, err := NewMLP([]int{8, 16, 16, 1}, SiLU, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	const rows = 24
	x := make([]float64, rows*8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	gOut := make([]float64, rows)
	for i := range gOut {
		gOut[i] = 1
	}
	refOut, refGrad := perRowReference(m, x, rows, gOut)
	for _, mode := range []precision.Mode{precision.ModeFP32, precision.ModeBF16x3} {
		var mt MixedBatch
		m.ForwardBatchMixed(mode, x, rows, &mt)
		grad := make([]float64, rows*8)
		m.BackwardBatchMixed(mode, &mt, grad)
		for r := 0; r < rows; r++ {
			if diff := math.Abs(mt.Out(r) - refOut[r]); diff > 1e-4*(1+math.Abs(refOut[r])) {
				t.Fatalf("%v out[%d] = %g, float64 %g", mode, r, mt.Out(r), refOut[r])
			}
		}
		var num, den float64
		for i := range grad {
			d := grad[i] - refGrad[i]
			num += d * d
			den += refGrad[i] * refGrad[i]
		}
		if rel := math.Sqrt(num / den); rel > 1e-4 {
			t.Fatalf("%v input-gradient relative error %g, want <= 1e-4", mode, rel)
		}
	}
}

// FuzzBatchedMLP cross-checks the blocked kernels against the per-row
// reference on fuzzed shapes, weights and inputs (bitwise). Weights and
// inputs are derived from the fuzz bytes as small dyadic rationals, which
// keeps them finite; byte 0x80 stands for −0.
func FuzzBatchedMLP(f *testing.F) {
	f.Add([]byte{2, 3, 1, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{4, 1, 2, 2, 200, 100, 0, 0, 0, 50, 25, 12, 255, 254, 253, 1, 2, 3})
	f.Add([]byte{1, 1, 1, 0, 128})
	f.Add([]byte{3, 2, 3, 2, 1, 4, 0x80, 0, 0x80, 0x80, 0, 0, 16, 0x80, 0, 240})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		next := func(k int) byte { b := data[k%len(data)]; return b }
		nLayers := 2 + int(next(0))%3 // 2..4 sizes entries
		sizes := make([]int, nLayers)
		for i := range sizes {
			sizes[i] = 1 + int(next(1+i))%8
		}
		act := Activation(int(next(nLayers+1)) % 3)
		rows := 1 + int(next(nLayers+2))%5
		m, err := NewMLP(sizes, act, 1)
		if err != nil {
			t.Skip()
		}
		// Overwrite weights/biases from the corpus: v = int8/16, so exact
		// zeros of both signs occur.
		k := nLayers + 3
		fill := func(dst []float64) {
			for i := range dst {
				dst[i] = float64(int8(next(k))) / 16
				if next(k) == 0x80 {
					dst[i] = math.Copysign(0, -1)
				}
				k++
			}
		}
		for l := range m.W {
			fill(m.W[l])
			fill(m.B[l])
		}
		in := sizes[0]
		outDim := sizes[len(sizes)-1]
		x := make([]float64, rows*in)
		fill(x)
		gOut := make([]float64, rows*outDim)
		fill(gOut)
		refOut, refGrad := perRowReference(m, x, rows, gOut)
		var bt BatchTape
		m.ForwardBatchInto(x, rows, &bt)
		grad := make([]float64, rows*in)
		m.BackwardBatch(&bt, gOut, grad)
		for i := range refOut {
			if math.Float64bits(bt.Outputs()[i]) != math.Float64bits(refOut[i]) {
				t.Fatalf("sizes %v act %v rows %d: output[%d] %v != %v", sizes, act, rows, i, bt.Outputs()[i], refOut[i])
			}
		}
		for i := range refGrad {
			if math.Float64bits(grad[i]) != math.Float64bits(refGrad[i]) {
				t.Fatalf("sizes %v act %v rows %d: grad[%d] %v != %v", sizes, act, rows, i, grad[i], refGrad[i])
			}
		}
	})
}
