package allegro

// The argument blocks of the row kernels: field offsets are amd64 facts
// (8-byte pointers and ints), so their pins live in an amd64 file.

import (
	"testing"
	"unsafe"
)

// TestRadialArgsLayout pins the field offsets the assembly hard-codes.
func TestRadialArgsLayout(t *testing.T) {
	var a radialArgs
	got := []uintptr{
		unsafe.Offsetof(a.r), unsafe.Offsetof(a.dx), unsafe.Offsetof(a.dy), unsafe.Offsetof(a.dz),
		unsafe.Offsetof(a.cs), unsafe.Offsetof(a.g), unsafe.Offsetof(a.sn), unsafe.Offsetof(a.cn),
		unsafe.Offsetof(a.tape), unsafe.Offsetof(a.terms), unsafe.Offsetof(a.n4), unsafe.Offsetof(a.ld),
		unsafe.Offsetof(a.nr), unsafe.Offsetof(a.rl), unsafe.Offsetof(a.tw2), unsafe.Offsetof(a.ww),
		unsafe.Offsetof(a.rc), unsafe.Offsetof(a.dfc),
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Fatalf("radialArgs field %d at offset %d, the assembly expects %d", i, off, 8*i)
		}
	}
}

// TestPairGradArgsLayout pins the field offsets the assembly hard-codes.
func TestPairGradArgsLayout(t *testing.T) {
	var a pairGradArgs
	got := []uintptr{
		unsafe.Offsetof(a.gx), unsafe.Offsetof(a.gy), unsafe.Offsetof(a.gz),
		unsafe.Offsetof(a.gD), unsafe.Offsetof(a.s), unsafe.Offsetof(a.gOff), unsafe.Offsetof(a.sOff),
		unsafe.Offsetof(a.tape), unsafe.Offsetof(a.dx), unsafe.Offsetof(a.dy), unsafe.Offsetof(a.dz),
		unsafe.Offsetof(a.r), unsafe.Offsetof(a.n4), unsafe.Offsetof(a.nr), unsafe.Offsetof(a.rl),
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Fatalf("pairGradArgs field %d at offset %d, the assembly expects %d", i, off, 8*i)
		}
	}
}
