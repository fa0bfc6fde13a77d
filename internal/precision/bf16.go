// Package precision emulates the mixed-precision arithmetic modes the paper
// exploits on Aurora's systolic arrays (Sec. V.B.7 and VI.C): brain-float 16
// (BF16) storage with FP32 accumulation, and Intel MKL's
// float_to_{BF16,BF16x2,BF16x3} compute modes, which split each FP32 operand
// into sums of 1, 2, or 3 BF16 components before multiplying.
//
// The paper's finding (ref [34]) is that plain float_to_BF16 is accurate
// enough for the perturbative nonlocal correction while BF16x3 recovers
// full FP32 accuracy; the tests in this package verify exactly that accuracy
// ladder on our own kernels.
package precision

import "math"

// BF16 is a brain-float 16 value: 1 sign bit, 8 exponent bits, 7 mantissa
// bits — the upper half of an IEEE-754 float32.
type BF16 uint16

// FromFloat32 rounds a float32 to the nearest BF16 (round-to-nearest-even).
func FromFloat32(f float32) BF16 {
	bits := math.Float32bits(f)
	if f != f { // NaN: keep it a NaN, set a mantissa bit
		return BF16(bits>>16 | 0x0040)
	}
	// Round to nearest even on the truncated 16 bits.
	rounding := uint32(0x7FFF) + (bits>>16)&1
	return BF16((bits + rounding) >> 16)
}

// Float32 expands a BF16 back to float32 exactly.
func (b BF16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// Mode selects the GEMM compute mode, mirroring MKL's bf16 options.
type Mode int

const (
	// ModeFP32 computes in float32 throughout (the reference).
	ModeFP32 Mode = iota
	// ModeBF16 converts operands to a single BF16 component (fastest,
	// least accurate).
	ModeBF16
	// ModeBF16x2 uses two BF16 components per operand.
	ModeBF16x2
	// ModeBF16x3 uses three components; accuracy is comparable to FP32.
	ModeBF16x3
	// ModeFP64 computes in float64 (used by the QXMD chemistry path).
	ModeFP64
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFP32:
		return "FP32"
	case ModeBF16:
		return "BF16"
	case ModeBF16x2:
		return "BF16x2"
	case ModeBF16x3:
		return "BF16x3"
	case ModeFP64:
		return "FP64"
	}
	return "unknown"
}

// Components returns how many BF16 components the mode uses per operand
// (0 for the non-BF16 modes).
func (m Mode) Components() int {
	switch m {
	case ModeBF16:
		return 1
	case ModeBF16x2:
		return 2
	case ModeBF16x3:
		return 3
	}
	return 0
}
