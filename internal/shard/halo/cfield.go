package halo

import "unsafe"

// GridFieldC is a C-component complex128 field on a Domain block: a
// GridField of 2C float64 components over the same memory, so every slab
// walk, refresh and frame is GridField's. On the wire each complex value
// travels as its (real, imag) float64 pair — pack and unpack are exact bit
// copies, no arithmetic — so kernels keep native complex128 expressions
// (the TDDFT propagator's) while riding the same float64 frame protocol as
// every other field. The embedded GridField counts in float64 units; Index
// and OwnIndex here count in complex units.
type GridFieldC struct {
	// GridField is the float64 view: 2C components per cell over Data's
	// memory.
	GridField
	// C is the number of complex components per cell (e.g. orbitals).
	C int
	// Data holds Ext[0]*Ext[1]*Ext[2]*C complex values, z-fastest.
	Data []complex128
}

// NewGridFieldC allocates a zeroed C-component complex field on d.
func NewGridFieldC(d Domain, c int) *GridFieldC {
	ext := d.Ext()
	data := make([]complex128, ext[0]*ext[1]*ext[2]*c)
	// Go lays out a complex128 as its real then its imaginary float64, so
	// the float64 view of Data holds each cell's 2C components in the
	// (real, imag) pair order the wire frame carries.
	flat := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(data))), 2*len(data))
	return &GridFieldC{GridField: GridField{D: d, C: 2 * c, Ext: ext, Data: flat}, C: c, Data: data}
}

// Index returns the Data offset of local cell (ix,iy,iz), ghosts
// included.
func (f *GridFieldC) Index(ix, iy, iz int) int {
	return ((ix*f.Ext[1]+iy)*f.Ext[2] + iz) * f.C
}

// OwnIndex returns the Data offset of owned cell (ox,oy,oz).
func (f *GridFieldC) OwnIndex(ox, oy, oz int) int {
	g := f.D.Ghost
	return f.Index(ox+g, oy+g, oz+g)
}
