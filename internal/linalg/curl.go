package linalg

// This file is the curl-row kernel of the Yee stencil, on the pattern of
// zkernels.go and dkernels.go: a scalar Go reference with every product
// rounded before it is added (the canonical result, and the only path off
// amd64/AVX2) and an FMA-free AVX2 twin (curl_amd64.s) that equals it bit
// for bit (FuzzCurlRows). Each component of each cell is one chain —
// two differences, two divides, a difference, a rounded product and the
// update — so a lane that runs the same IEEE operations in the same order
// gets the same bits. The wrapper checks every bound; the assembly none.

// CurlDir selects the half-step CurlRows applies.
type CurlDir int

const (
	// CurlAddBackward is the E update: dst += k·∇×src by backward
	// differences.
	CurlAddBackward CurlDir = iota
	// CurlSubForward is the B update: dst −= k·∇×src by forward
	// differences.
	CurlSubForward
)

// CurlBox is the geometry of a curl sweep over a box of cells of a
// three-component field (x, y, z interleaved, z-fastest): cell (i, j, l) of
// the box starts at index Base + i·SX + j·SY + 3l, and the stencil's
// neighbor along x, y and z is SX, SY and 3 floats away. Rows and planes
// may not overlap: SY ≥ 3·N[2] and SX ≥ SY·N[1].
type CurlBox struct {
	Base   int
	N      [3]int
	SX, SY int
}

// curlArgs is the argument block of the AVX2 kernel: the box walked as
// planes of rows of 4-cell chunks, both fields addressed from the box's
// first cell by the same byte offsets.
type curlArgs struct {
	dst, src *float64 // first cell of the box
	shift    [3]int   // byte offset of the stencil neighbor along x, y, z (negative: backward)
	sx, sy   uintptr  // plane and row strides, bytes
	nchunk   int      // 4-cell chunks per row
	ny, nx   int      // rows per plane, planes
	dir      CurlDir
	k        float64
	h        [6]float64 // hy hz hx hy hz hx: the divisor of lane j starts at h[j mod 3]
}

// CurlRows applies one Yee half-step to every cell of box, each component
// by the reference chain. For the E update (CurlAddBackward), at cell index
// p with (hx, hy, hz) = h and z-stride 3:
//
//	cx = (src[p+2]−src[p−SY+2])/hy − (src[p+1]−src[p−3+1])/hz
//	cy = (src[p]−src[p−3])/hz − (src[p+2]−src[p−SX+2])/hx
//	cz = (src[p+1]−src[p−SX+1])/hx − (src[p]−src[p−SY])/hy
//	dst[p+c] += float64(k·c_c)
//
// and for the B update (CurlSubForward) the same with forward differences
// (src[p+SY+2]−src[p+2], …) and −=. dst and src must not overlap. src is
// read over the stencil's reach plus two floats on either side: the
// vector kernel loads whole lanes around each neighbor run.
//
//mlmd:hotpath
func CurlRows(dir CurlDir, dst, src []float64, box CurlBox, h [3]float64, k float64) {
	if !box.check(dir, len(dst), len(src)) {
		return
	}
	if n4 := box.N[2] &^ 3; useAVX2 && n4 > 0 {
		step := 8 // bytes toward the stencil neighbor: forward, or back for E
		if dir == CurlAddBackward {
			step = -8
		}
		args := curlArgs{
			dst: &dst[box.Base], src: &src[box.Base],
			shift: [3]int{step * box.SX, step * box.SY, step * 3},
			sx:    uintptr(box.SX) * 8, sy: uintptr(box.SY) * 8,
			nchunk: n4 / 4, ny: box.N[1], nx: box.N[0],
			dir: dir, k: k,
			h: [6]float64{h[1], h[2], h[0], h[1], h[2], h[0]},
		}
		curlRowsAVX2(&args)
		if n4 == box.N[2] {
			return
		}
		// Row tails of 1–3 cells go through the reference.
		box.Base += 3 * n4
		box.N[2] -= n4
	}
	curlRowsGo(dir, dst, src, box, h, k)
}

// check panics unless the box is well formed and both fields hold its
// footprint, and reports whether it has any cell.
func (b CurlBox) check(dir CurlDir, ndst, nsrc int) bool {
	if dir != CurlAddBackward && dir != CurlSubForward {
		panic("linalg: CurlRows with an unknown direction")
	}
	if b.N[0] < 0 || b.N[1] < 0 || b.N[2] < 0 {
		panic("linalg: CurlRows with a negative box extent")
	}
	if b.N[0] == 0 || b.N[1] == 0 || b.N[2] == 0 {
		return false
	}
	if b.SY < 3*b.N[2] || b.SX < b.SY*b.N[1] {
		panic("linalg: CurlRows box rows or planes overlap")
	}
	last := b.Base + (b.N[0]-1)*b.SX + (b.N[1]-1)*b.SY + 3*(b.N[2]-1)
	lo, hi := b.Base-2, last+5
	if dir == CurlAddBackward {
		lo -= b.SX
	} else {
		hi += b.SX
	}
	if last+3 > ndst {
		panic("linalg: CurlRows destination field too short for the box")
	}
	if lo < 0 || hi > nsrc {
		panic("linalg: CurlRows source field too short for the stencil")
	}
	return true
}

// curlRowsGo is the reference of CurlRows: the Yee update loops with the
// product k·curl rounded before it is added, so no GOARCH may fuse it.
//
//mlmd:hotpath
func curlRowsGo(dir CurlDir, dst, src []float64, box CurlBox, h [3]float64, k float64) {
	sx, sy := box.SX, box.SY
	const sz = 3
	hx, hy, hz := h[0], h[1], h[2]
	for ox := 0; ox < box.N[0]; ox++ {
		for oy := 0; oy < box.N[1]; oy++ {
			base := box.Base + ox*sx + oy*sy
			if dir == CurlAddBackward {
				for oz := 0; oz < box.N[2]; oz++ {
					cx := (src[base+2]-src[base-sy+2])/hy - (src[base+1]-src[base-sz+1])/hz
					cy := (src[base]-src[base-sz])/hz - (src[base+2]-src[base-sx+2])/hx
					cz := (src[base+1]-src[base-sx+1])/hx - (src[base]-src[base-sy])/hy
					dst[base] += float64(k * cx)
					dst[base+1] += float64(k * cy)
					dst[base+2] += float64(k * cz)
					base += 3
				}
				continue
			}
			for oz := 0; oz < box.N[2]; oz++ {
				cx := (src[base+sy+2]-src[base+2])/hy - (src[base+sz+1]-src[base+1])/hz
				cy := (src[base+sz]-src[base])/hz - (src[base+sx+2]-src[base+2])/hx
				cz := (src[base+sx+1]-src[base+1])/hx - (src[base+sy]-src[base])/hy
				dst[base] -= float64(k * cx)
				dst[base+1] -= float64(k * cy)
				dst[base+2] -= float64(k * cz)
				base += 3
			}
		}
	}
}
