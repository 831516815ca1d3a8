//go:build amd64 && !noasm

package tensor

import "sync"

// Packed-panel loop nest for the SIMD GEMM path.
//
// Structure (BLIS-style, specialised to this package's shapes): the (j, l)
// blocking of the pure-Go kernels is kept — B is carved into
// (gemmBlockK × gemmBlockN) panels — but the panel is now packed into
// NR-wide slivers (kc×16, zero-padded past the matrix edge) and A is packed
// too, into MR-tall slivers (kc×6, zero-padded), gemmBlockMC rows at a
// time so the A block stays L2-resident while the microkernel sweeps it.
// The innermost computation is the register-tiled 6×16 AVX2/FMA microkernel
// in gemm_amd64.s; tiles touching a matrix edge use its masked variant, so
// every C element — interior or edge — is updated by the exact same
// ascending-k FMA chain. That uniformity is what keeps a sample's forward
// outputs bit-identical alone (N=1) and inside any batch on this path (see
// the contract note in gemm_amd64.s).
//
// All four operand layouts (Gemm, GemmTA, GemmTB, and Linear's x·wᵀ) share
// this nest; they differ only in how the A and B slivers are packed.

// gemmBlockMC rows of packed A per inner block: 192×128 float32 = 96 KiB,
// sized to survive in L2 next to the 512 KiB B panel. (gemmMR/gemmNR, the
// microkernel's register tile, are defined next to the dispatch logic in
// matmul.go because the row splitter aligns chunks to gemmMR on every
// build.)
const gemmBlockMC = 192

// gemmPackBuf holds one worker's packing scratch: an A block of up to
// gemmBlockMC (+ sliver padding) rows × gemmBlockK, and a B panel of up to
// gemmBlockK × gemmBlockN (+ sliver padding). Recycled through a sync.Pool
// so concurrent Gemm calls (scheduler workers × intra-GEMM row workers)
// never share a buffer.
type gemmPackBuf struct {
	a []float32
	b []float32
}

var gemmPackBufs = sync.Pool{
	New: func() any {
		return &gemmPackBuf{
			a: make([]float32, (gemmBlockMC+gemmMR)*gemmBlockK),
			b: make([]float32, (gemmBlockN+gemmNR)*gemmBlockK),
		}
	},
}

// gemmMasks[w] selects the first w of 16 lanes; the edge kernel indexes it
// by the tile's valid column count.
var gemmMasks = func() (m [gemmNR + 1][gemmNR]int32) {
	for w := 1; w <= gemmNR; w++ {
		for i := 0; i < w; i++ {
			m[w][i] = -1
		}
	}
	return
}()

// gemmAsmRows updates rows [i0, i1) of dst (m×n, row-major, stride n):
// dst[r] += A[r]·B. A is a (m×k) row-major with stride lda when !aT, or
// (k×m) with stride lda when aT (the GemmTA layout). B is (k×n) with
// stride ldb when !bT, or (n×k) with stride ldb when bT (the GemmTB /
// Linear weight layout). Row ranges from different goroutines may be
// processed concurrently: each call packs into its own pooled scratch and
// writes only its own dst rows.
func gemmAsmRows(dst, a, b []float32, i0, i1, k, n int, lda, ldb int, aT, bT bool) {
	buf := gemmPackBufs.Get().(*gemmPackBuf)
	ap, bp := buf.a, buf.b
	for j0 := 0; j0 < n; j0 += gemmBlockN {
		jw := min(gemmBlockN, n-j0)
		nsJ := (jw + gemmNR - 1) / gemmNR
		for l0 := 0; l0 < k; l0 += gemmBlockK {
			kc := min(gemmBlockK, k-l0)
			if bT {
				gemmPackBT(bp, b, j0, jw, l0, kc, ldb)
			} else {
				gemmPackB(bp, b, j0, jw, l0, kc, ldb)
			}
			for i := i0; i < i1; i += gemmBlockMC {
				mb := min(gemmBlockMC, i1-i)
				if aT {
					gemmPackAT(ap, a, i, mb, l0, kc, lda)
				} else {
					gemmPackA(ap, a, i, mb, l0, kc, lda)
				}
				nsI := (mb + gemmMR - 1) / gemmMR
				for sj := 0; sj < nsJ; sj++ {
					cols := min(gemmNR, jw-sj*gemmNR)
					bsl := &bp[sj*kc*gemmNR]
					cBase := j0 + sj*gemmNR
					for si := 0; si < nsI; si++ {
						rows := min(gemmMR, mb-si*gemmMR)
						asl := &ap[si*kc*gemmMR]
						cp := &dst[(i+si*gemmMR)*n+cBase]
						if rows == gemmMR && cols == gemmNR {
							gemmKernel6x16(cp, asl, bsl, int64(kc), int64(n))
						} else {
							gemmKernel6x16Edge(cp, asl, bsl, int64(kc), int64(n),
								int64(rows), &gemmMasks[cols][0])
						}
					}
				}
			}
		}
	}
	gemmPackBufs.Put(buf)
}

// linearZeroBias backs the nil-bias case of linearAsm: the dot kernel
// unconditionally adds a (masked) bias vector, so a missing bias reads
// zeros.
var linearZeroBias [8]float32

// linearAsm is the SIMD driver for Linear: dst = x·wᵀ + bias, x (n × in),
// w (out × in), dst (n × out), all row-major. It deliberately skips the
// packed GEMM nest — for Linear's shapes (a few batch rows against a weight
// matrix far larger than any cache) packing the weight operand costs more
// than the multiply — and instead sweeps 8-output groups of weight rows
// with the pack-free dot kernel, reusing each group across all n samples so
// the weight matrix streams from memory exactly once per call.
//
// Intra-GEMM parallelism splits the OUTPUT dimension (not the batch: n is
// small here) in kernel-aligned groups of 8; each worker writes disjoint
// dst columns, and the kernel's accumulation chain is position-independent,
// so results are bit-identical for every worker count.
func linearAsm(dst, x, w, bias []float32, n, in, out int) {
	if n == 0 || out == 0 {
		return
	}
	if in == 0 {
		for i := 0; i < n; i++ {
			row := dst[i*out : i*out+out]
			if bias != nil {
				copy(row, bias[:out])
			} else {
				for j := range row {
					row[j] = 0
				}
			}
		}
		return
	}
	kfull := int64(in / 8)
	ktail := int64(in % 8)
	kmask := &gemmMasks[ktail][0]
	gemmSplitRows(out, 8, int64(n)*int64(in)*int64(out), func(o0, o1 int) {
		for o := o0; o < o1; o += 8 {
			rows := min(8, o1-o)
			omask := &gemmMasks[rows][0]
			wp := &w[o*in]
			bp := &linearZeroBias[0]
			if bias != nil {
				bp = &bias[o]
			}
			for i := 0; i < n; i++ {
				linearKernel8(&dst[i*out+o], &x[i*in], wp, bp,
					int64(in), kfull, ktail, int64(rows), kmask, omask)
			}
		}
	})
}

// gemmPackA packs rows [i0, i0+mb) × k range [l0, l0+kc) of a row-major A
// (stride lda) into MR-tall slivers: ap[s][l][r] = A[i0+6s+r][l0+l], with
// the last sliver's missing rows zeroed.
func gemmPackA(ap, a []float32, i0, mb, l0, kc, lda int) {
	ns := (mb + gemmMR - 1) / gemmMR
	for s := 0; s < ns; s++ {
		rows := min(gemmMR, mb-s*gemmMR)
		base := s * kc * gemmMR
		for r := 0; r < rows; r++ {
			src := a[(i0+s*gemmMR+r)*lda+l0:]
			dst := ap[base+r:]
			for l := 0; l < kc; l++ {
				dst[l*gemmMR] = src[l]
			}
		}
		for r := rows; r < gemmMR; r++ {
			dst := ap[base+r:]
			for l := 0; l < kc; l++ {
				dst[l*gemmMR] = 0
			}
		}
	}
}

// gemmPackAT is gemmPackA for the transposed layout (A stored k×m, stride
// lda = m): each k step's six row values are contiguous in the source, so
// packing is a short copy per k.
func gemmPackAT(ap, a []float32, i0, mb, l0, kc, lda int) {
	ns := (mb + gemmMR - 1) / gemmMR
	for s := 0; s < ns; s++ {
		rows := min(gemmMR, mb-s*gemmMR)
		base := s * kc * gemmMR
		col := i0 + s*gemmMR
		for l := 0; l < kc; l++ {
			src := a[(l0+l)*lda+col : (l0+l)*lda+col+rows]
			dst := ap[base+l*gemmMR : base+l*gemmMR+gemmMR]
			copy(dst, src)
			for r := rows; r < gemmMR; r++ {
				dst[r] = 0
			}
		}
	}
}

// gemmPackB packs columns [j0, j0+jw) × k range [l0, l0+kc) of a row-major
// B (k×n, stride ldb) into NR-wide slivers: bp[s][l][c] = B[l0+l][j0+16s+c],
// with the last sliver's missing columns zeroed so the masked kernel can
// run full-width FMAs over it.
func gemmPackB(bp, b []float32, j0, jw, l0, kc, ldb int) {
	ns := (jw + gemmNR - 1) / gemmNR
	for s := 0; s < ns; s++ {
		cols := min(gemmNR, jw-s*gemmNR)
		base := s * kc * gemmNR
		js := j0 + s*gemmNR
		for l := 0; l < kc; l++ {
			src := b[(l0+l)*ldb+js : (l0+l)*ldb+js+cols]
			dst := bp[base+l*gemmNR : base+l*gemmNR+gemmNR]
			copy(dst, src)
			for c := cols; c < gemmNR; c++ {
				dst[c] = 0
			}
		}
	}
}

// gemmPackBT is gemmPackB for the transposed layout (B stored n×k, stride
// ldb = k — the GemmTB operand and the Dense layer's natural weight
// layout): packing reads each source row contiguously and scatters it into
// the sliver's column, fixing the strided re-reads the pre-packing kernels
// paid per output row.
func gemmPackBT(bp, b []float32, j0, jw, l0, kc, ldb int) {
	ns := (jw + gemmNR - 1) / gemmNR
	for s := 0; s < ns; s++ {
		cols := min(gemmNR, jw-s*gemmNR)
		base := s * kc * gemmNR
		for c := 0; c < cols; c++ {
			src := b[(j0+s*gemmNR+c)*ldb+l0:]
			dst := bp[base+c:]
			for l := 0; l < kc; l++ {
				dst[l*gemmNR] = src[l]
			}
		}
		if cols < gemmNR {
			for l := 0; l < kc; l++ {
				row := bp[base+l*gemmNR : base+l*gemmNR+gemmNR]
				for c := cols; c < gemmNR; c++ {
					row[c] = 0
				}
			}
		}
	}
}
