package md

// pruneAVX2 stores, compacted in row order from out, the candidates of
// row[0:n] (n a multiple of 4) that pruneKernel.rowRef accepts, 4 at a time,
// and returns how many candidates it took and how many it kept. It stops at
// the first group with a lane MinImage would send to minImageFormula or an
// index outside [0, nx), so done is n or the start of that group. A group's
// store covers 4 slots of out whatever it keeps, all inside out[:done].
// Assembly in prune_amd64.s; the caller checks every other bound.
//
//go:noescape
func pruneAVX2(k *pruneKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, out *int32) (done, kept int)

// pruneAVX512 is pruneAVX2 on 8 candidates per ZMM (AVX512F): n is a
// multiple of 8, and done is n or the start of the first group of 8 it
// cannot take. It stores only the kept candidates (VPCOMPRESSD).
//
//go:noescape
func pruneAVX512(k *pruneKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, out *int32) (done, kept int)
