package linalg

// This file is the complex128 kernel tier under the imaginary-time ground-
// state solve (tddft.GroundState, grid.WaveField.GramSchmidt) and the
// overlaps of a DC-MESH step: the stencil application H·ψ, the residual
// descent step, the column dots and updates of right-looking modified
// Gram–Schmidt, and the per-orbital dot. Every kernel walks an
// orbital-fastest field row by row in ascending g, and every lane is one
// orbital: it runs its reference's scalar chain, in its order, with every
// complex product the full textbook product of ZMul — including the 0·x
// terms of a complex(x, 0) coefficient, so signed zeros, infinities and
// NaNs come out as the scalar code had them. As in zkernels.go the Go loop
// is the reference and the AVX2 kernel (zground_amd64.s) must equal it by
// Float64bits; the wrappers own every bounds check.

// zconj returns the complex conjugate (an exact sign flip).
func zconj(z complex128) complex128 { return complex(real(z), -imag(z)) }

// fieldRows returns the number of norb-wide rows of x, panicking unless x
// holds a whole number of them.
func fieldRows(x []complex128, norb int) int {
	if norb < 1 || len(x)%norb != 0 {
		panic("linalg: field is not a whole number of rows")
	}
	return len(x) / norb
}

// checkCols panics unless columns [lo, lo+n) lie within a row of norb.
func checkCols(lo, n, norb int) {
	if lo < 0 || n < 0 || lo+n > norb {
		panic("linalg: column range outside the row")
	}
}

// ZDotRows sets acc[j] to Σ_g conj(x[g·norb+lo+j])·y[g·norb+lo+j]: the
// overlap ⟨x_s|y_s⟩ of each orbital s = lo+j with itself across two fields
// of the same shape, summed from zero in ascending g (ZMul products).
//
//mlmd:hotpath
func ZDotRows(acc, x, y []complex128, norb, lo int) {
	rows := fieldRows(x, norb)
	if len(y) != len(x) {
		panic("linalg: ZDotRows fields differ in length")
	}
	checkCols(lo, len(acc), norb)
	if useAVX2 && rows > 0 && len(acc) > 0 {
		zdotRowsAVX2(&acc[0], &x[lo], &y[lo], norb, rows, len(acc))
		return
	}
	zdotRowsGo(acc, x, y, norb, lo)
}

// zdotRowsGo is the reference of ZDotRows.
//
//mlmd:hotpath
func zdotRowsGo(acc, x, y []complex128, norb, lo int) {
	for j := range acc {
		acc[j] = 0
	}
	for g := lo; g < len(x); g += norb {
		xr, yr := x[g:g+len(acc)], y[g:g+len(acc)]
		for j, a := range xr {
			acc[j] += ZMul(zconj(a), yr[j])
		}
	}
}

// ZDotCol sets acc[j] to Σ_g conj(x[g·norb+col])·y[g·norb+lo+j]: the
// overlaps ⟨x_col|y_s⟩ of one orbital of x with the orbitals s = lo+j of y,
// summed from zero in ascending g (ZMul products).
//
//mlmd:hotpath
func ZDotCol(acc, x []complex128, col int, y []complex128, norb, lo int) {
	rows := fieldRows(x, norb)
	if len(y) != len(x) {
		panic("linalg: ZDotCol fields differ in length")
	}
	checkCols(col, 1, norb)
	checkCols(lo, len(acc), norb)
	if useAVX2 && rows > 0 && len(acc) > 0 {
		args := zdotColArgs{x: &x[col], y: &y[lo], acc: &acc[0], norb: norb, rows: rows, ncols: len(acc)}
		zdotColAVX2(&args)
		return
	}
	zdotColGo(acc, x, col, y, norb, lo, false, 0)
}

// ZScaleDotCol is ZDotCol of a field with itself after scaling orbital col:
// row by row in ascending g, x[g·norb+col] becomes ZMul(x[g·norb+col],
// complex(scale, 0)), and then acc[j] takes conj(x[g·norb+col])·x[g·norb+lo+j].
// It is the normalize-then-project pass of right-looking Gram–Schmidt;
// with acc empty it only scales.
//
//mlmd:hotpath
func ZScaleDotCol(acc, x []complex128, norb, col int, scale float64, lo int) {
	rows := fieldRows(x, norb)
	checkCols(col, 1, norb)
	checkCols(lo, len(acc), norb)
	if useAVX2 && rows > 0 {
		args := zdotColArgs{x: &x[col], norb: norb, rows: rows, ncols: len(acc), scale: scale, doScale: 1}
		if len(acc) > 0 {
			args.y, args.acc = &x[lo], &acc[0]
		}
		zdotColAVX2(&args)
		return
	}
	zdotColGo(acc, x, col, x, norb, lo, true, scale)
}

// zdotColArgs is the argument block of the column-dot kernel; x and y
// point at column col and column lo of row 0.
type zdotColArgs struct {
	x, y    *complex128
	acc     *complex128
	norb    int
	rows    int
	ncols   int
	scale   float64
	doScale int
}

// zdotColGo is the reference of ZDotCol and ZScaleDotCol.
//
//mlmd:hotpath
func zdotColGo(acc, x []complex128, col int, y []complex128, norb, lo int, doScale bool, scale float64) {
	for j := range acc {
		acc[j] = 0
	}
	sc := complex(scale, 0)
	for g := 0; g < len(x); g += norb {
		if doScale {
			x[g+col] = ZMul(x[g+col], sc)
		}
		a := zconj(x[g+col])
		for j, b := range y[g+lo : g+lo+len(acc)] {
			acc[j] += ZMul(a, b)
		}
	}
}

// ZAxpyCol subtracts a[j]·x[g·norb+col] from x[g·norb+lo+j] for every row g
// (ZMul products; the update of Gram–Schmidt that removes orbital col from
// the orbitals after it) and returns Σ_g |x[g·norb+lo]|² of the updated
// first column, in ascending g — the sum of the next orbital's squared
// norm. With a empty it does nothing and returns 0. The range [lo,
// lo+len(a)) must not contain col.
//
//mlmd:hotpath
func ZAxpyCol(x []complex128, norb, col int, a []complex128, lo int) float64 {
	rows := fieldRows(x, norb)
	checkCols(col, 1, norb)
	checkCols(lo, len(a), norb)
	if len(a) == 0 {
		return 0
	}
	if col >= lo && col < lo+len(a) {
		panic("linalg: ZAxpyCol updates its own source column")
	}
	if useAVX2 && rows > 0 {
		return zaxpyColAVX2(&x[col], &x[lo], &a[0], norb, rows, len(a))
	}
	return zaxpyColGo(x, norb, col, a, lo)
}

// zaxpyColGo is the reference of ZAxpyCol.
//
//mlmd:hotpath
func zaxpyColGo(x []complex128, norb, col int, a []complex128, lo int) float64 {
	var sum float64
	if len(a) == 0 {
		return sum
	}
	for g := 0; g < len(x); g += norb {
		v := x[g+col]
		row := x[g+lo : g+lo+len(a)]
		for j, c := range a {
			row[j] -= ZMul(c, v)
		}
		u := row[0]
		sum += float64(real(u)*real(u)) + float64(imag(u)*imag(u))
	}
	return sum
}

// ZResidRows takes one residual-descent step of every orbital,
//
//	w[g·norb+s] −= complex(dtau, 0)·(hw[g·norb+s] − e[s]·w[g·norb+s])
//
// (ZMul products), and returns Σ_g |w[g·norb]|² of the updated orbital 0 in
// ascending g. e holds one coefficient per orbital.
//
//mlmd:hotpath
func ZResidRows(w, hw []complex128, norb int, e []complex128, dtau float64) float64 {
	rows := fieldRows(w, norb)
	if len(hw) != len(w) || len(e) != norb {
		panic("linalg: ZResidRows shape mismatch")
	}
	if useAVX2 && rows > 0 {
		return zresidRowsAVX2(&w[0], &hw[0], &e[0], norb, rows, dtau)
	}
	return zresidRowsGo(w, hw, norb, e, dtau)
}

// zresidRowsGo is the reference of ZResidRows.
//
//mlmd:hotpath
func zresidRowsGo(w, hw []complex128, norb int, e []complex128, dtau float64) float64 {
	dt := complex(dtau, 0)
	var sum float64
	for g := 0; g < len(w); g += norb {
		row, hrow := w[g:g+norb], hw[g:g+norb]
		for s, es := range e {
			row[s] -= ZMul(dt, hrow[s]-ZMul(es, row[s]))
		}
		u := row[0]
		sum += float64(real(u)*real(u)) + float64(imag(u)*imag(u))
	}
	return sum
}

// ZStencil is a validated six-neighbour row plan for ZStencilRows: for
// each row g, the rows of its +x, −x, +y, −y, +z and −z neighbours.
// Validation happens once, at plan time.
type ZStencil struct {
	nb   [6][]int32
	rows int
}

// NewZStencil validates six neighbour tables of one length n (every index
// in [0, n)) and wraps them. The plan keeps the tables; the caller must not
// modify them afterwards.
func NewZStencil(xp, xm, yp, ym, zp, zm []int32) ZStencil {
	st := ZStencil{nb: [6][]int32{xp, xm, yp, ym, zp, zm}, rows: len(xp)}
	for _, t := range st.nb {
		if len(t) != st.rows {
			panic("linalg: neighbour tables differ in length")
		}
		for _, v := range t {
			if v < 0 || int(v) >= st.rows {
				panic("linalg: neighbour index outside the mesh")
			}
		}
	}
	return st
}

// ZStencilCoef holds the coefficients of one stencil shell of ZStencilRows.
type ZStencilCoef struct {
	// Init selects dst = complex(vloc[g]+Diag, 0)·src + shell (the first
	// shell, with the diagonal) over dst += shell (every later one).
	Init bool
	Diag float64
	// XP and XM multiply the +x and −x neighbours (hopping times Peierls
	// phase); Y and Z multiply the sums of the ±y and ±z neighbours.
	XP, XM complex128
	Y, Z   float64
}

// ZStencilRows applies one shell of the star stencil to every orbital of
// src, row by row in ascending g:
//
//	shell = ((XP·src[xp] + XM·src[xm]) + Y·(src[yp]+src[ym])) + Z·(src[zp]+src[zm])
//	dst[g] = complex(vloc[g]+Diag, 0)·src[g] + shell   (Init)
//	dst[g] = dst[g] + shell                            (otherwise)
//
// (ZMul products, Y and Z as complex(Y, 0) and complex(Z, 0)). With acc
// non-empty (len norb) it also sets acc[s] = Σ_g conj(src[g,s])·dst[g,s] over
// the rows as written, in ascending g — the Rayleigh sums of H·ψ, taken on
// the last shell. dst and src must not overlap.
//
//mlmd:hotpath
func ZStencilRows(dst, src []complex128, norb int, st ZStencil, vloc []float64, c ZStencilCoef, acc []complex128) {
	rows := fieldRows(src, norb)
	if len(dst) != len(src) || rows != st.rows || (c.Init && len(vloc) != rows) {
		panic("linalg: ZStencilRows shape mismatch")
	}
	if len(acc) != 0 && len(acc) != norb {
		panic("linalg: ZStencilRows sums need one value per orbital")
	}
	if rows > 0 && &dst[0] == &src[0] {
		panic("linalg: ZStencilRows in place")
	}
	if useAVX2 && rows > 0 {
		args := zstencilArgs{
			dst: &dst[0], src: &src[0], norb: norb, rows: rows,
			diag: c.Diag, xpr: real(c.XP), xpi: imag(c.XP), xmr: real(c.XM), xmi: imag(c.XM), y: c.Y, z: c.Z,
		}
		for i, t := range st.nb {
			args.nb[i] = &t[0]
		}
		if c.Init {
			args.vloc = &vloc[0]
		}
		if len(acc) != 0 {
			args.acc = &acc[0]
		}
		zstencilRowsAVX2(&args)
		return
	}
	zstencilRowsGo(dst, src, norb, st, vloc, c, acc)
}

// zstencilArgs is the argument block of the stencil kernel. vloc is nil
// for a shell without the diagonal, acc nil without the sums.
type zstencilArgs struct {
	dst, src   *complex128
	nb         [6]*int32
	vloc       *float64
	acc        *complex128
	norb, rows int
	diag       float64
	xpr, xpi   float64
	xmr, xmi   float64
	y, z       float64
}

// zstencilRowsGo is the reference of ZStencilRows.
//
//mlmd:hotpath
func zstencilRowsGo(dst, src []complex128, norb int, st ZStencil, vloc []float64, c ZStencilCoef, acc []complex128) {
	cy, cz := complex(c.Y, 0), complex(c.Z, 0)
	for j := range acc {
		acc[j] = 0
	}
	for g := 0; g < st.rows; g++ {
		base := g * norb
		d, s := dst[base:base+norb], src[base:base+norb]
		if c.Init {
			vg := complex(vloc[g]+c.Diag, 0)
			for j, v := range s {
				d[j] = ZMul(vg, v)
			}
		}
		xp, xm := int(st.nb[0][g])*norb, int(st.nb[1][g])*norb
		yp, ym := int(st.nb[2][g])*norb, int(st.nb[3][g])*norb
		zp, zm := int(st.nb[4][g])*norb, int(st.nb[5][g])*norb
		for j := range d {
			shell := ((ZMul(c.XP, src[xp+j]) + ZMul(c.XM, src[xm+j])) +
				ZMul(cy, src[yp+j]+src[ym+j])) + ZMul(cz, src[zp+j]+src[zm+j])
			d[j] += shell
		}
		if len(acc) != 0 {
			for j, v := range s {
				acc[j] += ZMul(zconj(v), d[j])
			}
		}
	}
}
