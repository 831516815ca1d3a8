package tensor

import "fmt"

// Batched bias-reduction kernels for the backward pass. A mini-batch's bias
// gradient is a sum over every output position of every sample; these two
// kernels cover the two layouts the batched backward produces, with
// accumulation orders chosen so a batch reproduces N sequential N=1
// backward chains exactly (bias gradients stay bit-identical whatever the
// batch width):
//
//   - AddRowSums reduces an F-major (rows) × (groups·groupLen) matrix — the
//     convolution backward's dY layout, one groupLen-long run per
//     (filter, sample) — folding each group's sum into dst as its own
//     chain, exactly as N N=1 backward calls would.
//   - AddColSums reduces a row-major (rows) × (cols) matrix — the dense
//     backward's (N, out) dY layout — folding row after row into dst,
//     exactly as N N=1 backward calls would.
//
// Both are allocation-free and carry no state, so they are safe for
// concurrent use with per-caller buffers.

// AddRowSums accumulates per-row group sums of the row-major
// (rows) × (groups·groupLen) matrix src into dst: for every row r and group
// g, the sum of src[r·groups·groupLen+g·groupLen : …+(g+1)·groupLen]
// (ascending, one float32 chain per group) is added to dst[r]. With
// src = the batched convolution's F-major output gradient (rows = filters,
// groups = batch, groupLen = outH·outW) this is the batched dB reduction,
// bit-identical to N N=1 backward calls (each sample's spatial sum is its
// own chain folded into dst in sample order).
func AddRowSums(dst, src []float32, rows, groups, groupLen int) error {
	if rows < 0 || groups < 0 || groupLen < 0 {
		return fmt.Errorf("tensor: row-sum dims (rows=%d, groups=%d, groupLen=%d) must be >= 0",
			rows, groups, groupLen)
	}
	rowLen := groups * groupLen
	if len(src) < rows*rowLen {
		return fmt.Errorf("tensor: row-sum src length %d < %d for (rows=%d) × (groups=%d)·(groupLen=%d)",
			len(src), rows*rowLen, rows, groups, groupLen)
	}
	if len(dst) < rows {
		return fmt.Errorf("tensor: row-sum dst length %d < rows %d", len(dst), rows)
	}
	for r := 0; r < rows; r++ {
		row := src[r*rowLen : (r+1)*rowLen]
		for g := 0; g < groups; g++ {
			var acc float32
			for _, v := range row[g*groupLen : (g+1)*groupLen] {
				acc += v
			}
			dst[r] += acc
		}
	}
	return nil
}

// AddColSums accumulates column sums of the row-major (rows) × (cols) matrix
// src into dst: dst[c] += src[r·cols+c] for r ascending — row after row
// folded directly into dst, streaming src once. With src = the batched dense
// layer's (N, out) output gradient this is the batched dB reduction,
// bit-identical to N N=1 backward calls (each adds its sample's gradient
// row into dst in sample order).
func AddColSums(dst, src []float32, rows, cols int) error {
	if rows < 0 || cols < 0 {
		return fmt.Errorf("tensor: col-sum dims (rows=%d, cols=%d) must be >= 0", rows, cols)
	}
	if len(src) < rows*cols {
		return fmt.Errorf("tensor: col-sum src length %d < %d for (rows=%d) × (cols=%d)",
			len(src), rows*cols, rows, cols)
	}
	if len(dst) < cols {
		return fmt.Errorf("tensor: col-sum dst length %d < cols %d", len(dst), cols)
	}
	for r := 0; r < rows; r++ {
		row := src[r*cols : (r+1)*cols]
		for c, v := range row {
			dst[c] += v
		}
	}
	return nil
}
