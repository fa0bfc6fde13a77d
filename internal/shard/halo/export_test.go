package halo

// SetReads makes r the read set in flight on axis, as PostAxis does, but
// moves nothing: the axis's next FrameLen, Pack and Unpack follow it.
func (f *GridField) SetReads(axis int, r Reads) {
	f.setReads(axis, r)
}
