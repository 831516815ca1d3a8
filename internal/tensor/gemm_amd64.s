//go:build amd64 && !noasm

#include "textflag.h"

// AVX2/FMA register-tiled GEMM microkernels over packed panels.
//
// Both kernels compute a 6×16 tile of C += A·B from an A sliver packed as
// kc×6 (six A values per k step, contiguous) and a B sliver packed as kc×16
// (sixteen B values per k step, contiguous, zero-padded past the matrix
// edge). The 12 accumulator registers Y0–Y11 hold the tile (two YMM per
// row); Y12/Y13 carry the current B row and Y14/Y15 the broadcast A values.
//
// Numerical contract (load-bearing — the bit-equality tests in
// internal/core depend on it): every C element is updated as a single
// FMA chain in ascending k order, seeded from the element's prior value.
// The chain is identical for the full and the masked kernel and does not
// depend on the tile's position, the matrix width, or the number of GEMM
// workers, so a sample's forward outputs stay bit-identical alone (N=1)
// and inside any batch on the SIMD path (they differ from the pure-Go path
// only by the FMA's fused rounding).

// func gemmKernel6x16(c, a, b *float32, kc, ldc int64)
// Full-tile kernel: all 6 rows and 16 columns of C are in range.
// ldc is C's row stride in float32 elements.
TEXT ·gemmKernel6x16(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ kc+24(FP), CX
	MOVQ ldc+32(FP), DX
	SHLQ $2, DX            // row stride in bytes
	LEAQ (DI)(DX*1), R8    // row 1
	LEAQ (DI)(DX*2), R9    // row 2
	LEAQ (R8)(DX*2), R10   // row 3
	LEAQ (R9)(DX*2), R11   // row 4
	LEAQ (R10)(DX*2), R12  // row 5

	// Seed the accumulators with the existing C tile (C += A·B).
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (R8), Y2
	VMOVUPS 32(R8), Y3
	VMOVUPS (R9), Y4
	VMOVUPS 32(R9), Y5
	VMOVUPS (R10), Y6
	VMOVUPS 32(R10), Y7
	VMOVUPS (R11), Y8
	VMOVUPS 32(R11), Y9
	VMOVUPS (R12), Y10
	VMOVUPS 32(R12), Y11

kloop:
	VMOVUPS (BX), Y12      // B[l][0:8]
	VMOVUPS 32(BX), Y13    // B[l][8:16]
	VBROADCASTSS (SI), Y14
	VBROADCASTSS 4(SI), Y15
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VFMADD231PS Y12, Y15, Y2
	VFMADD231PS Y13, Y15, Y3
	VBROADCASTSS 8(SI), Y14
	VBROADCASTSS 12(SI), Y15
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VFMADD231PS Y12, Y15, Y6
	VFMADD231PS Y13, Y15, Y7
	VBROADCASTSS 16(SI), Y14
	VBROADCASTSS 20(SI), Y15
	VFMADD231PS Y12, Y14, Y8
	VFMADD231PS Y13, Y14, Y9
	VFMADD231PS Y12, Y15, Y10
	VFMADD231PS Y13, Y15, Y11
	ADDQ $24, SI           // 6 floats per k step
	ADDQ $64, BX           // 16 floats per k step
	DECQ CX
	JNZ  kloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, 32(R8)
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, 32(R9)
	VMOVUPS Y6, (R10)
	VMOVUPS Y7, 32(R10)
	VMOVUPS Y8, (R11)
	VMOVUPS Y9, 32(R11)
	VMOVUPS Y10, (R12)
	VMOVUPS Y11, 32(R12)
	VZEROUPPER
	RET

// func gemmKernel6x16Edge(c, a, b *float32, kc, ldc, mr int64, mask *int32)
// Edge-tile kernel: mr (1..6) valid rows, and the 16-lane column mask
// selects the valid columns (the packed B sliver is zero-padded past the
// edge, so masked-out lanes never contaminate live ones). Loads and stores
// of C touch only valid rows and masked columns; the FMA chain per live
// element is identical to the full kernel's.
TEXT ·gemmKernel6x16Edge(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ kc+24(FP), CX
	MOVQ ldc+32(FP), DX
	MOVQ mr+40(FP), AX
	MOVQ mask+48(FP), R15
	SHLQ $2, DX
	LEAQ (DI)(DX*1), R8
	LEAQ (DI)(DX*2), R9
	LEAQ (R8)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	LEAQ (R10)(DX*2), R12

	VMOVUPS (R15), Y14     // column mask, lanes 0–7
	VMOVUPS 32(R15), Y15   // column mask, lanes 8–15
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	// Masked loads for the valid rows only (mr >= 1 always).
	VMASKMOVPS (DI), Y14, Y0
	VMASKMOVPS 32(DI), Y15, Y1
	CMPQ AX, $1
	JLE  body
	VMASKMOVPS (R8), Y14, Y2
	VMASKMOVPS 32(R8), Y15, Y3
	CMPQ AX, $2
	JLE  body
	VMASKMOVPS (R9), Y14, Y4
	VMASKMOVPS 32(R9), Y15, Y5
	CMPQ AX, $3
	JLE  body
	VMASKMOVPS (R10), Y14, Y6
	VMASKMOVPS 32(R10), Y15, Y7
	CMPQ AX, $4
	JLE  body
	VMASKMOVPS (R11), Y14, Y8
	VMASKMOVPS 32(R11), Y15, Y9
	CMPQ AX, $5
	JLE  body
	VMASKMOVPS (R12), Y14, Y10
	VMASKMOVPS 32(R12), Y15, Y11

body:
	VMOVUPS (BX), Y12
	VMOVUPS 32(BX), Y13
	VBROADCASTSS (SI), Y14
	VBROADCASTSS 4(SI), Y15
	VFMADD231PS Y12, Y14, Y0
	VFMADD231PS Y13, Y14, Y1
	VFMADD231PS Y12, Y15, Y2
	VFMADD231PS Y13, Y15, Y3
	VBROADCASTSS 8(SI), Y14
	VBROADCASTSS 12(SI), Y15
	VFMADD231PS Y12, Y14, Y4
	VFMADD231PS Y13, Y14, Y5
	VFMADD231PS Y12, Y15, Y6
	VFMADD231PS Y13, Y15, Y7
	VBROADCASTSS 16(SI), Y14
	VBROADCASTSS 20(SI), Y15
	VFMADD231PS Y12, Y14, Y8
	VFMADD231PS Y13, Y14, Y9
	VFMADD231PS Y12, Y15, Y10
	VFMADD231PS Y13, Y15, Y11
	ADDQ $24, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  body

	// Masked stores mirror the masked loads.
	VMOVUPS (R15), Y14
	VMOVUPS 32(R15), Y15
	VMASKMOVPS Y0, Y14, (DI)
	VMASKMOVPS Y1, Y15, 32(DI)
	CMPQ AX, $1
	JLE  done
	VMASKMOVPS Y2, Y14, (R8)
	VMASKMOVPS Y3, Y15, 32(R8)
	CMPQ AX, $2
	JLE  done
	VMASKMOVPS Y4, Y14, (R9)
	VMASKMOVPS Y5, Y15, 32(R9)
	CMPQ AX, $3
	JLE  done
	VMASKMOVPS Y6, Y14, (R10)
	VMASKMOVPS Y7, Y15, 32(R10)
	CMPQ AX, $4
	JLE  done
	VMASKMOVPS Y8, Y14, (R11)
	VMASKMOVPS Y9, Y15, 32(R11)
	CMPQ AX, $5
	JLE  done
	VMASKMOVPS Y10, Y14, (R12)
	VMASKMOVPS Y11, Y15, 32(R12)

done:
	VZEROUPPER
	RET

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func linearKernel8(dst, x, w, bias *float32, ldw, kfull, ktail, rows int64, kmask, omask *int32)
// Dense-layer dot kernel: computes 8 consecutive outputs of one sample,
// dst[0:rows] = bias[0:rows] + x·w[r]ᵀ for the 8 weight rows starting at w
// (row stride ldw floats). Used by Linear instead of the packed GEMM
// because its shapes are tall-skinny (a few batch rows against a weight
// matrix that dwarfs every cache): packing B would cost more than the
// multiply, while this kernel streams each weight row exactly once with no
// packing at all.
//
// Numerical contract: each output is 8 lane-partial FMA chains (lane j
// accumulates the l ≡ j (mod 8) terms in ascending l), reduced by a fixed
// hadd tree, plus bias. The chain depends only on the input width, never
// on the batch size or output position, so a Dense row's output is the
// same bits at any batch size.
//
// Weight rows past `rows` are clamped to the last valid row (computed but
// masked off at store), so the kernel never reads out of bounds; the x and
// bias tails use masked loads the same way.
TEXT ·linearKernel8(SB), NOSPLIT, $0-80
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ ldw+32(FP), DX
	SHLQ $2, DX            // weight row stride in bytes
	MOVQ rows+56(FP), AX

	// Row pointers R8..R15, advancing by ldw only while rows remain; the
	// clamped tail rows alias the last valid row.
	XORQ BX, BX
	CMPQ AX, $2
	MOVQ DX, CX
	CMOVQLT BX, CX
	LEAQ (R8)(CX*1), R9
	CMPQ AX, $3
	MOVQ DX, CX
	CMOVQLT BX, CX
	LEAQ (R9)(CX*1), R10
	CMPQ AX, $4
	MOVQ DX, CX
	CMOVQLT BX, CX
	LEAQ (R10)(CX*1), R11
	CMPQ AX, $5
	MOVQ DX, CX
	CMOVQLT BX, CX
	LEAQ (R11)(CX*1), R12
	CMPQ AX, $6
	MOVQ DX, CX
	CMOVQLT BX, CX
	LEAQ (R12)(CX*1), R13
	CMPQ AX, $7
	MOVQ DX, CX
	CMOVQLT BX, CX
	LEAQ (R13)(CX*1), R14
	CMPQ AX, $8
	MOVQ DX, CX
	CMOVQLT BX, CX
	LEAQ (R14)(CX*1), R15

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	MOVQ kfull+40(FP), CX
	TESTQ CX, CX
	JZ   ltail

lloop:
	VMOVUPS (SI), Y8
	VFMADD231PS (R8), Y8, Y0
	VFMADD231PS (R9), Y8, Y1
	VFMADD231PS (R10), Y8, Y2
	VFMADD231PS (R11), Y8, Y3
	VFMADD231PS (R12), Y8, Y4
	VFMADD231PS (R13), Y8, Y5
	VFMADD231PS (R14), Y8, Y6
	VFMADD231PS (R15), Y8, Y7
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $32, R14
	ADDQ $32, R15
	DECQ CX
	JNZ  lloop

ltail:
	MOVQ ktail+48(FP), CX
	TESTQ CX, CX
	JZ   lreduce
	MOVQ kmask+64(FP), BX
	VMOVUPS (BX), Y9       // 8-lane k-tail mask
	VMASKMOVPS (SI), Y9, Y8
	VMASKMOVPS (R8), Y9, Y10
	VFMADD231PS Y10, Y8, Y0
	VMASKMOVPS (R9), Y9, Y10
	VFMADD231PS Y10, Y8, Y1
	VMASKMOVPS (R10), Y9, Y10
	VFMADD231PS Y10, Y8, Y2
	VMASKMOVPS (R11), Y9, Y10
	VFMADD231PS Y10, Y8, Y3
	VMASKMOVPS (R12), Y9, Y10
	VFMADD231PS Y10, Y8, Y4
	VMASKMOVPS (R13), Y9, Y10
	VFMADD231PS Y10, Y8, Y5
	VMASKMOVPS (R14), Y9, Y10
	VFMADD231PS Y10, Y8, Y6
	VMASKMOVPS (R15), Y9, Y10
	VFMADD231PS Y10, Y8, Y7

lreduce:
	// Fixed reduction tree: each output's lanes fold as
	// ((p0+p1)+(p2+p3)) + ((p4+p5)+(p6+p7)).
	VHADDPS Y1, Y0, Y0
	VHADDPS Y3, Y2, Y2
	VHADDPS Y5, Y4, Y4
	VHADDPS Y7, Y6, Y6
	VHADDPS Y2, Y0, Y0     // low128 = outs 0-3 lane-lows, high128 = lane-highs
	VHADDPS Y6, Y4, Y4     // same for outs 4-7
	VPERM2F128 $0x20, Y4, Y0, Y1
	VPERM2F128 $0x31, Y4, Y0, Y2
	VADDPS Y2, Y1, Y0      // [d0..d7]

	MOVQ omask+72(FP), BX
	VMOVUPS (BX), Y9       // 8-lane output mask (rows valid lanes)
	MOVQ bias+24(FP), BX
	VMASKMOVPS (BX), Y9, Y1
	VADDPS Y1, Y0, Y0
	VMASKMOVPS Y0, Y9, (DI)
	VZEROUPPER
	RET
