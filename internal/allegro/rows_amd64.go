package allegro

// Assembly kernels of rows.go (rows_amd64.s). They check no bound: the Go
// wrappers do.

// radialExpAVX2 writes, for the a.n4 pairs 4 at a time, the Gaussian
// exponents −(r−c_k)·(r−c_k)/(2·w·w) into g[k·n4+p] and the cutoff phase
// π·r/rc into sn[p].
//
//go:noescape
func radialExpAVX2(a *radialArgs)

// radialRecAVX2 writes, from the Gaussians in g and the phase's sine and
// cosine in sn and cn, each pair's radial record into the tape and its
// descriptor terms into terms, 4 pairs at a time.
//
//go:noescape
func radialRecAVX2(a *radialArgs)

// pairGradRowsAVX2 writes PairGradTaped's terms of the a.n4 pairs, 4 at a
// time, into gx, gy and gz.
//
//go:noescape
func pairGradRowsAVX2(a *pairGradArgs)
