package linalg

// The argument blocks of the assembly kernels: field offsets are amd64
// facts (8-byte pointers and ints), so their pins live in an amd64 file, as
// does the CPUID side of the exp kernels' dispatch.

import (
	"testing"
	"unsafe"
)

// TestExpDispatchIsTheSelfCheck: useExpFMA is exactly AVX2 and FMA on the
// host and this process's math.Exp being the stdlib's fused block — set under
// a plain run on an FMA host, clear under GODEBUG=cpu.fma=off.
func TestExpDispatchIsTheSelfCheck(t *testing.T) {
	fused, _ := mathExpIsFused()
	if want := hasAVX2() && hasFMA() && fused; useExpFMA != want {
		t.Errorf("useExpFMA = %v; AVX2 %v, FMA %v, math.Exp fused on the probe %v", useExpFMA, hasAVX2(), hasFMA(), fused)
	}
}

// TestCurlArgsLayout pins the field offsets the assembly hard-codes.
func TestCurlArgsLayout(t *testing.T) {
	var c curlArgs
	got := []uintptr{
		unsafe.Offsetof(c.dst), unsafe.Offsetof(c.src),
		unsafe.Offsetof(c.shift), unsafe.Offsetof(c.shift) + 8, unsafe.Offsetof(c.shift) + 16,
		unsafe.Offsetof(c.sx), unsafe.Offsetof(c.sy), unsafe.Offsetof(c.nchunk),
		unsafe.Offsetof(c.ny), unsafe.Offsetof(c.nx), unsafe.Offsetof(c.dir),
		unsafe.Offsetof(c.k), unsafe.Offsetof(c.h),
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Fatalf("curlArgs field %d at offset %d, the assembly expects %d", i, off, 8*i)
		}
	}
}

// TestZGEMMArgsLayout pins the field offsets the assembly hard-codes.
func TestZGEMMArgsLayout(t *testing.T) {
	var z zgemmArgs
	got := []uintptr{
		unsafe.Offsetof(z.a), unsafe.Offsetof(z.aRow), unsafe.Offsetof(z.aCol), unsafe.Offsetof(z.conj),
		unsafe.Offsetof(z.b), unsafe.Offsetof(z.ldb), unsafe.Offsetof(z.c), unsafe.Offsetof(z.ldc),
		unsafe.Offsetof(z.m), unsafe.Offsetof(z.kb), unsafe.Offsetof(z.n),
		unsafe.Offsetof(z.alphaRe), unsafe.Offsetof(z.alphaIm),
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Fatalf("zgemmArgs field %d at offset %d, the assembly expects %d", i, off, 8*i)
		}
	}
}

// TestDGEMMArgsLayout pins the field offsets the assembly hard-codes.
func TestDGEMMArgsLayout(t *testing.T) {
	var d dgemmArgs
	got := []uintptr{
		unsafe.Offsetof(d.a), unsafe.Offsetof(d.aOff), unsafe.Offsetof(d.aOff) + 8, unsafe.Offsetof(d.aOff) + 16,
		unsafe.Offsetof(d.b), unsafe.Offsetof(d.ldb),
		unsafe.Offsetof(d.c), unsafe.Offsetof(d.cOff), unsafe.Offsetof(d.cOff) + 8, unsafe.Offsetof(d.cOff) + 16,
		unsafe.Offsetof(d.n), unsafe.Offsetof(d.k),
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Fatalf("dgemmArgs field %d at offset %d, the assembly expects %d", i, off, 8*i)
		}
	}
}

// TestZDotColArgsLayout pins the field offsets the assembly hard-codes.
func TestZDotColArgsLayout(t *testing.T) {
	var d zdotColArgs
	got := []uintptr{
		unsafe.Offsetof(d.x), unsafe.Offsetof(d.y), unsafe.Offsetof(d.acc),
		unsafe.Offsetof(d.norb), unsafe.Offsetof(d.rows), unsafe.Offsetof(d.ncols),
		unsafe.Offsetof(d.scale), unsafe.Offsetof(d.doScale),
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Fatalf("zdotColArgs field %d at offset %d, the assembly expects %d", i, off, 8*i)
		}
	}
}

// TestZStencilArgsLayout pins the field offsets the assembly hard-codes.
func TestZStencilArgsLayout(t *testing.T) {
	var s zstencilArgs
	got := []uintptr{
		unsafe.Offsetof(s.dst), unsafe.Offsetof(s.src),
		unsafe.Offsetof(s.nb), unsafe.Offsetof(s.nb) + 8, unsafe.Offsetof(s.nb) + 16,
		unsafe.Offsetof(s.nb) + 24, unsafe.Offsetof(s.nb) + 32, unsafe.Offsetof(s.nb) + 40,
		unsafe.Offsetof(s.vloc), unsafe.Offsetof(s.acc), unsafe.Offsetof(s.norb), unsafe.Offsetof(s.rows),
		unsafe.Offsetof(s.diag), unsafe.Offsetof(s.xpr), unsafe.Offsetof(s.xpi),
		unsafe.Offsetof(s.xmr), unsafe.Offsetof(s.xmi), unsafe.Offsetof(s.y), unsafe.Offsetof(s.z),
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Fatalf("zstencilArgs field %d at offset %d, the assembly expects %d", i, off, 8*i)
		}
	}
}
