package tensor

// Im2col expands the CHW input src (c×h×w) into dst as a row-major
// (c·k·k) × (outH·outW) matrix, where row (ch·k+ky)·k+kx holds the input
// value each output position sees through kernel tap (ch, ky, kx); padding
// positions are zero. It is exactly Im2colBatch with a batch of one — the
// single-sample layout the reference tests check the lowering against.
func Im2col(dst, src []float32, c, h, w, k, stride, pad int) error {
	return Im2colBatch(dst, src, 1, c, h, w, k, stride, pad)
}

// Col2im scatters a (c·k·k) × (outH·outW) column matrix back onto the CHW
// plane dst (c×h×w), accumulating overlapping contributions — the adjoint of
// Im2col, exactly Col2imBatch with a batch of one.
func Col2im(dst, cols []float32, c, h, w, k, stride, pad int) error {
	return Col2imBatch(dst, cols, 1, c, h, w, k, stride, pad)
}
