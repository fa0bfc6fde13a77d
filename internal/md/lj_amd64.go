package md

// ljTermsAVX2 writes the terms of pair for the candidates row[0:n] (n a
// multiple of 4), 4 at a time, into t[c], t[c+ljSeg], t[c+2·ljSeg] and
// t[c+3·ljSeg] (the x, y, z and u arrays of an ljScratch), +0 for a rejected
// candidate, and returns how many it wrote. It stops at the first group with
// a lane pair's MinImage would send to minImageFormula or an index outside
// [0, nx), so the return is n or the start of that group. Assembly in
// lj_amd64.s; the caller checks every other bound.
//
//go:noescape
func ljTermsAVX2(k *ljKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, t *float64) int

// ljTermsAVX512 is ljTermsAVX2 on 8 candidates per ZMM (AVX512F): n is a
// multiple of 8, and the return is n or the start of the first group of 8
// it cannot take.
//
//go:noescape
func ljTermsAVX512(k *ljKernel, x *float64, nx int, row *int32, n int, xi, yi, zi float64, t *float64) int
