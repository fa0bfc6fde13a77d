package noallocfix

// scaleKernel is backed by assembly (asm.s): a hot-path declaration without
// a body. There is nothing for the analyzer to walk, and it must neither
// report nor crash on it.
//
//mlmd:hotpath
func scaleKernel(p *float64, n int)

// GoodAsmCall hands a retained buffer to the assembly kernel the way the
// linalg wrappers do: bounds decided in Go, a pointer to the first element
// passed down. Nothing here allocates.
//
//mlmd:hotpath
func (s *State) GoodAsmCall() {
	if len(s.buf) == 0 {
		return
	}
	scaleKernel(&s.buf[0], len(s.buf))
}

// BadAsmCall still gets its own body checked when it calls into assembly.
//
//mlmd:hotpath
func (s *State) BadAsmCall(n int) {
	tmp := make([]float64, n) // want "make allocates on the hot path"
	scaleKernel(&tmp[0], n)
}
