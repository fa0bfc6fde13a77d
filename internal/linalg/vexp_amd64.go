package linalg

// Assembly kernels of vexp.go (vexp_amd64.s). Each takes n 4-lane groups and
// returns how many it did: it stops before the first group with a lane
// outside [expKernelMin, expKernelMax], which the wrapper sends through
// math.Exp. They check no bound: the wrappers do.

//go:noescape
func expRowsAVX2FMA(dst, src *float64, n int) int

//go:noescape
func siluRowsAVX2FMA(y, dy, x *float64, n int) int
