package md

import (
	"testing"
	"unsafe"
)

// TestLJKernelArgsLayout pins the offsets ljTermsAVX2 hard-codes: the
// ljKernel fields it broadcasts and the ljScratch arrays it stores to.
func TestLJKernelArgsLayout(t *testing.T) {
	var k ljKernel
	got := []uintptr{
		unsafe.Offsetof(k.rc2), unsafe.Offsetof(k.sig2), unsafe.Offsetof(k.eps4), unsafe.Offsetof(k.eps24),
	}
	for _, p := range []uintptr{unsafe.Offsetof(k.px), unsafe.Offsetof(k.py), unsafe.Offsetof(k.pz)} {
		got = append(got, p+unsafe.Offsetof(k.px.l), p+unsafe.Offsetof(k.px.near),
			p+unsafe.Offsetof(k.px.wrapLo), p+unsafe.Offsetof(k.px.wrapHi))
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Fatalf("ljKernel field %d at offset %d, the assembly expects %d", i, off, 8*i)
		}
	}
	var s ljScratch
	for i, off := range []uintptr{unsafe.Offsetof(s.x), unsafe.Offsetof(s.y), unsafe.Offsetof(s.z), unsafe.Offsetof(s.u)} {
		if off != uintptr(512*i) {
			t.Fatalf("ljScratch array %d at offset %d, the assembly expects %d", i, off, 512*i)
		}
	}
}

// TestPruneKernelArgsLayout pins the offsets the prune kernels hard-code:
// the squared radius, then the three periods' l, near, wrapLo and wrapHi.
func TestPruneKernelArgsLayout(t *testing.T) {
	var k pruneKernel
	got := []uintptr{unsafe.Offsetof(k.r2)}
	for _, p := range []uintptr{unsafe.Offsetof(k.px), unsafe.Offsetof(k.py), unsafe.Offsetof(k.pz)} {
		got = append(got, p+unsafe.Offsetof(k.px.l), p+unsafe.Offsetof(k.px.near),
			p+unsafe.Offsetof(k.px.wrapLo), p+unsafe.Offsetof(k.px.wrapHi))
	}
	for i, off := range got {
		if off != uintptr(8*i) {
			t.Fatalf("pruneKernel field %d at offset %d, the assembly expects %d", i, off, 8*i)
		}
	}
}
