package precision

import (
	"math"

	"mlmd/internal/linalg"
)

// GEMMMixed computes C = A*B (row-major, A m×k, B k×n, C m×n, float32
// storage) under the selected compute Mode, with FP32 accumulation as on the
// PVC systolic arrays. For the BF16xN modes each operand is split into N
// BF16 components and the cross products accumulate from smallest to largest
// contribution, matching the library behaviour the paper relies on.
func GEMMMixed(mode Mode, m, n, k int, a, b, c []float32) {
	switch mode {
	case ModeFP32:
		linalg.GEMM32(m, n, k, 1, a, k, b, n, 0, c, n)
		return
	case ModeFP64:
		a64 := make([]float64, len(a))
		b64 := make([]float64, len(b))
		c64 := make([]float64, len(c))
		for i, v := range a {
			a64[i] = float64(v)
		}
		for i, v := range b {
			b64[i] = float64(v)
		}
		linalg.GEMM64(m, n, k, 1, a64, k, b64, n, 0, c64, n)
		for i, v := range c64 {
			c[i] = float32(v)
		}
		return
	}
	comps := mode.Components()
	// Split operands once: aSplit[p] holds component p of every element.
	aSplit := splitMatrix(a, comps)
	bSplit := splitMatrix(b, comps)
	for i := range c {
		c[i] = 0
	}
	// Accumulate cross products c += a_p * b_q. Order from the smallest
	// magnitude terms (largest p+q) to the largest preserves accuracy.
	for s := 2 * (comps - 1); s >= 0; s-- {
		for p := 0; p < comps; p++ {
			q := s - p
			if q < 0 || q >= comps {
				continue
			}
			linalg.GEMM32(m, n, k, 1, aSplit[p], k, bSplit[q], n, 1, c, n)
		}
	}
}

func splitMatrix(x []float32, comps int) [][]float32 {
	out := make([][]float32, comps)
	for p := range out {
		out[p] = make([]float32, len(x))
	}
	for i, v := range x {
		rem := v
		for p := 0; p < comps; p++ {
			b := FromFloat32(rem)
			out[p][i] = b.Float32()
			rem -= out[p][i]
		}
	}
	return out
}

// FrobRelError returns ‖got − ref‖_F / ‖ref‖_F, the scale-invariant matrix
// error used to compare compute modes (elementwise relative error is
// meaningless at entries that nearly cancel).
func FrobRelError(got []float32, ref []float64) float64 {
	var num, den float64
	for i := range got {
		d := float64(got[i]) - ref[i]
		num += d * d
		den += ref[i] * ref[i]
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}
