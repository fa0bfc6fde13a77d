package nn

import (
	"fmt"

	"mlmd/internal/linalg"
)

// BatchTape holds the per-layer activations of one blocked forward pass:
// the per-row tape of ForwardTapeInto turned on its side, with every layer's
// inputs and activation derivatives stored as a rows×width row-major matrix
// so the forward pass is one linalg.GEMM64 per layer instead of rows
// dot-product sweeps. Like Tape, a BatchTape is reusable — buffers are sized
// on first use and recorded over on later passes — so steady-state blocked
// inference allocates nothing.
//
// The blocked pass is bitwise identical to running ForwardTapeInto /
// BackwardInto row by row: GEMM64 accumulates each output element over the
// reduction index in the same ascending order as the per-row loops, with
// the same operand rounding (IEEE-754 multiplication is commutative, and
// the alpha=1 scaling is exact) and no product skipped — for every input,
// signed zeros, infinities and NaNs included.
type BatchTape struct {
	rows int
	// in[l] is the rows×Sizes[l] input block of layer l; in[0] is the
	// gathered network input.
	in [][]float64
	// pre[l] is the rows×Sizes[l+1] block layer l's GEMM accumulates its
	// pre-activations into. For a hidden layer ForwardBatch then overwrites
	// each pre-activation with the activation derivative at it — actFn, and
	// for SiLU linalg.SiLURows over the whole block, yield both at once —
	// which is all BackwardBatch needs of it.
	pre [][]float64
	// out is the rows×Sizes[last] output block.
	out []float64
	// wT[l] is the Sizes[l]×Sizes[l+1] transpose of W[l], restaged on
	// every forward pass (weights may change between passes).
	wT [][]float64
	// d0/d1 are the rows×maxWidth ping-pong delta blocks of BackwardBatch.
	d0, d1 []float64
	// job is the reused pool binding of the layer GEMMs (0-alloc).
	job linalg.GEMM64Job
}

// Rows returns the number of rows recorded by the last forward pass.
func (t *BatchTape) Rows() int { return t.rows }

// Outputs returns the rows×outDim output block of the last forward pass.
func (t *BatchTape) Outputs() []float64 { return t.out }

// Out returns row r's first output (scalar-output networks).
func (t *BatchTape) Out(r int) float64 { return t.out[r] }

// BatchInput sizes t for a blocked pass of rows rows through m and returns
// the input block to gather into: row r occupies [r*in, (r+1)*in). Writing
// descriptors straight into this block avoids a copy before ForwardBatch.
func (m *MLP) BatchInput(t *BatchTape, rows int) []float64 {
	m.ensureBatch(t, rows)
	return t.in[0][:rows*m.Sizes[0]]
}

// ensureBatch sizes t's buffers for a rows-row pass through m.
func (m *MLP) ensureBatch(t *BatchTape, rows int) {
	layers := len(m.W)
	if len(t.in) != layers {
		t.in = make([][]float64, layers)
		t.pre = make([][]float64, layers)
		t.wT = make([][]float64, layers)
	}
	width := 0
	for _, s := range m.Sizes {
		if s > width {
			width = s
		}
	}
	for l := 0; l < layers; l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if cap(t.in[l]) < rows*in {
			t.in[l] = make([]float64, rows*in)
		}
		if cap(t.pre[l]) < rows*out {
			t.pre[l] = make([]float64, rows*out)
		}
		if len(t.wT[l]) != in*out {
			t.wT[l] = make([]float64, in*out)
		}
	}
	if n := rows * m.Sizes[layers]; cap(t.out) < n {
		t.out = make([]float64, n)
	}
	if cap(t.d0) < rows*width {
		t.d0 = make([]float64, rows*width)
		t.d1 = make([]float64, rows*width)
	}
	t.rows = rows
}

// ForwardBatch runs the blocked forward pass over the input block gathered
// via BatchInput (t.rows rows), recording every layer for BackwardBatch.
// Each layer preloads its bias into the pre-activation block and issues one
// GEMM64 against the restaged weight transpose, reproducing the per-row
// ForwardTapeInto arithmetic bitwise (see the BatchTape contract).
//
//mlmd:hotpath
func (m *MLP) ForwardBatch(t *BatchTape) {
	rows := t.rows
	if rows == 0 {
		return
	}
	layers := len(m.W)
	for l := 0; l < layers; l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		// Restage Wᵀ so the GEMM's reduction walks the per-row input
		// index in the same ascending order as the dot-product loop.
		wt := t.wT[l]
		for o := 0; o < out; o++ {
			row := m.W[l][o*in : (o+1)*in]
			for i, v := range row {
				wt[i*out+o] = v
			}
		}
		pre := t.pre[l][:rows*out]
		b := m.B[l]
		for r := 0; r < rows; r++ {
			copy(pre[r*out:(r+1)*out], b)
		}
		t.job.Run(rows, out, in, 1, t.in[l][:rows*in], in, wt, out, 1, pre, out)
		if l == layers-1 {
			copy(t.out[:rows*out], pre)
			continue
		}
		dst := t.in[l+1][:rows*out]
		if m.Act == SiLU {
			linalg.SiLURows(dst, pre, pre)
			continue
		}
		for i, v := range pre {
			dst[i], pre[i] = actFn(m.Act, v)
		}
	}
}

// ForwardBatchInto gathers x (rows×Sizes[0], row-major) into t and runs
// ForwardBatch; t is returned for call chaining.
func (m *MLP) ForwardBatchInto(x []float64, rows int, t *BatchTape) *BatchTape {
	if len(x) != rows*m.Sizes[0] {
		panic(fmt.Sprintf("nn: batch input length %d != %d rows × %d", len(x), rows, m.Sizes[0]))
	}
	copy(m.BatchInput(t, rows), x)
	m.ForwardBatch(t)
	return t
}

// BackwardBatch propagates the output cotangent block gOut (t.rows×outDim,
// row-major) through the taped blocked forward pass, writing the input
// gradients into dst (t.rows×Sizes[0], returned). Hidden deltas are scaled
// elementwise by the activation derivative ForwardBatch taped (no second
// actFn call) and each layer's input gradient is one GEMM64 against the
// untransposed weights, reproducing BackwardInto row by row bitwise. Weight
// gradients are not accumulated — the blocked path is inference-only
// (training keeps the per-row tapes).
//
//mlmd:hotpath
func (m *MLP) BackwardBatch(t *BatchTape, gOut, dst []float64) []float64 {
	rows := t.rows
	outDim := m.Sizes[len(m.Sizes)-1]
	if len(gOut) != rows*outDim {
		panic(fmt.Sprintf("nn: batch cotangent length %d != %d rows × %d", len(gOut), rows, outDim))
	}
	if rows == 0 {
		return dst[:0]
	}
	delta := t.d0[:rows*outDim]
	spare := t.d1
	copy(delta, gOut)
	for l := len(m.W) - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if l < len(m.W)-1 {
			for i, d := range t.pre[l][:rows*out] {
				delta[i] *= d
			}
		}
		next := spare[:rows*in]
		t.job.Run(rows, in, out, 1, delta, out, m.W[l], in, 0, next, in)
		spare = delta[:cap(delta)]
		delta = next
	}
	copy(dst[:rows*m.Sizes[0]], delta)
	return dst[:rows*m.Sizes[0]]
}
