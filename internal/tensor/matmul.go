package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// GEMM kernels over row-major float32 slices. These are the compute
// substrate of the im2col convolution path (internal/nn) and are written for
// the shapes that path produces: from single-sample (N=1) matrices a few
// hundred elements per side up to batch-wide matrices whose n dimension
// spans a whole NCHW batch of output positions.
//
// Two kernel generations coexist, selected once at init:
//
//   - SIMD path (amd64 with AVX2+FMA, default build): a register-tiled
//     6×16 microkernel in Go assembly (gemm_amd64.s) over packed A and B
//     panels (gemm_packed.go). Every C element is one ascending-k FMA
//     chain, identical for interior and edge tiles and independent of the
//     matrix width, so a sample's forward outputs are the same bits alone
//     (N=1) and inside any batch; against the pure-Go path results differ only by the
//     FMA's fused rounding (golden-equivalence-tested to 1e-4).
//   - Pure-Go path (other architectures, CPUs without AVX2/FMA, or the
//     `noasm` build tag): the blocked axpy kernels below, bit-identical to
//     the pre-SIMD implementation. Blocking over (j, l) carves B into
//     (gemmBlockK × gemmBlockN) panels, packed once into a dense scratch
//     buffer and reused across every row of A; packing never reorders the
//     per-element accumulation (l ascends for every output element).
//
// GemmKernel reports which path is active; CPUFeatures what was detected.
//
// The kernels carry no caller-visible state, so they are safe for
// concurrent use; callers own the slices. Packing scratch recycles through
// sync.Pools rather than allocating per call.
//
// A single Gemm/GemmAcc/GemmTA/GemmTB call can additionally split its M
// dimension across a bounded set of worker goroutines (SetGemmWorkers,
// default 1 = off). Rows are independent in every kernel — each output
// element's accumulation chain depends only on its own A row and B column —
// so results are bit-identical for every worker count.

const (
	// gemmBlockM is the number of output rows processed per B panel in the
	// pure-Go transposed kernel (GemmTA), which keeps an i-blocked sweep so
	// the C tile stays cache-resident.
	gemmBlockM = 64
	// gemmBlockK is the depth of the packed B panel.
	gemmBlockK = 128
	// gemmBlockN is the width of the packed B panel. 128×1024 float32 =
	// 512 KiB, sized to survive in L2 across the full sweep of A rows.
	gemmBlockN = 1024
	// gemmMR × gemmNR is the SIMD microkernel's register tile: 6 rows × 16
	// columns = 12 YMM accumulators, the classic AVX2 sgemm shape. The row
	// splitter aligns parallel chunks to gemmMR on every build so the SIMD
	// path's sliver padding stays on real block edges.
	gemmMR = 6
	gemmNR = 16
)

// gemmAsmActive selects the SIMD path; set during init by gemm_amd64.go
// when the CPU supports AVX2+FMA (never set in noasm or non-amd64 builds).
var gemmAsmActive bool

// gemmKernelName and cpuFeatures back GemmKernel and CPUFeatures.
var (
	gemmKernelName = "generic"
	cpuFeatures    = ""
)

// GemmKernel reports the active inner-kernel implementation: "avx2-fma"
// (register-tiled SIMD microkernel) or "generic" (pure-Go blocked kernel,
// also the `noasm` build-tag fallback).
func GemmKernel() string { return gemmKernelName }

// CPUFeatures reports the SIMD features detected at init (e.g.
// "avx,avx2,fma,avx512f"), or "" when detection is unavailable for the
// architecture.
func CPUFeatures() string { return cpuFeatures }

// gemmPanels recycles the pure-Go kernels' packing buffers across GEMM
// calls (and goroutines: each call Gets its own panel, so the kernels stay
// concurrency-safe).
var gemmPanels = sync.Pool{
	New: func() any {
		s := make([]float32, gemmBlockK*gemmBlockN)
		return &s
	},
}

// gemmTokenPool bounds the extra goroutines intra-GEMM parallelism may use
// across ALL concurrent GEMM calls in the process: a call takes tokens
// non-blockingly (running single-threaded if none are free), so scheduler
// workers × GEMM workers can never oversubscribe beyond SetGemmWorkers-1
// extras.
type gemmTokenPool struct{ ch chan struct{} }

var (
	gemmTokens      atomic.Pointer[gemmTokenPool]
	gemmWorkerCount atomic.Int64
)

func init() { gemmWorkerCount.Store(1) }

// SetGemmWorkers bounds how many goroutines a single GEMM call may use by
// splitting its M dimension into row blocks. n <= 1 disables intra-GEMM
// parallelism (the default: at GOMAXPROCS=1 extra workers only add
// scheduling overhead). The bound is process-global and shared by all
// concurrent GEMM calls. Results are bit-identical for every setting.
func SetGemmWorkers(n int) {
	if n < 1 {
		n = 1
	}
	// A runaway flag value should not preallocate a huge token pool; beyond
	// a few times the core count extra workers cannot help anyway.
	if ceil := max(64, 4*runtime.NumCPU()); n > ceil {
		n = ceil
	}
	gemmWorkerCount.Store(int64(n))
	if n == 1 {
		gemmTokens.Store(nil)
		return
	}
	p := &gemmTokenPool{ch: make(chan struct{}, n-1)}
	for i := 0; i < n-1; i++ {
		p.ch <- struct{}{}
	}
	gemmTokens.Store(p)
}

// GemmWorkers reports the current intra-GEMM worker bound.
func GemmWorkers() int { return int(gemmWorkerCount.Load()) }

// gemmParallelMinWork is the m·k·n MAC count below which a GEMM always runs
// single-threaded: goroutine handoff costs ~µs, so sub-megaflop calls lose.
const gemmParallelMinWork = 1 << 20

// gemmSplitRows runs body over [0, m) split into row blocks, using up to
// the globally bounded extra workers. body must be safe for concurrent
// calls on disjoint row ranges (every kernel here is: rows write disjoint
// dst regions and packing scratch is pooled per call). Chunks are aligned
// to align — gemmMR for the GEMM kernels so the SIMD path's sliver padding
// stays on real block edges, 8 for the Linear dot kernel's output groups.
func gemmSplitRows(m, align int, work int64, body func(i0, i1 int)) {
	p := gemmTokens.Load()
	if p == nil || m < 2*align || work < gemmParallelMinWork {
		body(0, m)
		return
	}
	maxExtra := m/align - 1
	extra := 0
	for extra < maxExtra {
		ok := false
		select {
		case <-p.ch:
			ok = true
		default:
		}
		if !ok {
			break
		}
		extra++
	}
	if extra == 0 {
		body(0, m)
		return
	}
	parts := extra + 1
	chunk := (m + parts - 1) / parts
	chunk = (chunk + align - 1) / align * align
	var wg sync.WaitGroup
	for lo := chunk; lo < m; lo += chunk {
		hi := min(lo+chunk, m)
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			body(i0, i1)
		}(lo, hi)
	}
	body(0, min(chunk, m))
	wg.Wait()
	for i := 0; i < extra; i++ {
		p.ch <- struct{}{}
	}
}

// Gemm computes dst = a·b for row-major a (m×k), b (k×n), dst (m×n),
// overwriting dst. Slices must have at least m*k, k*n and m*n elements;
// the function panics otherwise (programming error, not runtime input).
func Gemm(dst, a, b []float32, m, k, n int) {
	checkGemm(len(dst), len(a), len(b), m, k, n)
	for i := range dst[:m*n] {
		dst[i] = 0
	}
	gemmAcc(dst, a, b, m, k, n)
}

// GemmAcc computes dst += a·b with the same layout contract as Gemm.
func GemmAcc(dst, a, b []float32, m, k, n int) {
	checkGemm(len(dst), len(a), len(b), m, k, n)
	gemmAcc(dst, a, b, m, k, n)
}

func gemmAcc(dst, a, b []float32, m, k, n int) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	gemmSplitRows(m, gemmMR, int64(m)*int64(k)*int64(n), func(i0, i1 int) {
		if gemmAsmActive {
			gemmAsmRows(dst, a, b, i0, i1, k, n, k, n, false, false)
		} else {
			gemmAccScalar(dst, a, b, i0, i1, k, n)
		}
	})
}

// gemmAccScalar is the pure-Go blocked kernel for rows [i0, i1), preserved
// bit-identically from the pre-SIMD implementation: B panels are packed
// densely once per (j, l) block and reused across every A row (axpy-style
// i–l–j sweeps the compiler turns into bounds-check-free streaming code).
// Packing is what makes batch-wide GEMMs fast: with all N samples' im2col
// columns in one matrix, B's row stride spans megabytes, and walking 128
// such rows per output row would thrash the TLB; the dense panel costs one
// copy per (j, l) block and turns the hot loop into sequential 512 KiB-
// resident streams.
func gemmAccScalar(dst, a, b []float32, i0, i1, k, n int) {
	pp := gemmPanels.Get().(*[]float32)
	panel := *pp
	for j0 := 0; j0 < n; j0 += gemmBlockN {
		jMax := min(j0+gemmBlockN, n)
		jw := jMax - j0
		for l0 := 0; l0 < k; l0 += gemmBlockK {
			lMax := min(l0+gemmBlockK, k)
			for l := l0; l < lMax; l++ {
				copy(panel[(l-l0)*jw:(l-l0)*jw+jw], b[l*n+j0:l*n+jMax])
			}
			for i := i0; i < i1; i++ {
				cr := dst[i*n+j0 : i*n+jMax]
				ar := a[i*k+l0 : i*k+lMax]
				for li, av := range ar {
					if av == 0 {
						continue
					}
					br := panel[li*jw : li*jw+jw]
					for j, bv := range br {
						cr[j] += av * bv
					}
				}
			}
		}
	}
	gemmPanels.Put(pp)
}

// GemmTA computes dst += aᵀ·b for row-major a (k×m), b (k×n), dst (m×n).
// This is the dX step of the convolution backward pass
// (columns gradient = Wᵀ · dY).
func GemmTA(dst, a, b []float32, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || len(a) < k*m || len(b) < k*n || len(dst) < m*n {
		panic(fmt.Sprintf("tensor: gemmTA operand lengths (%d,%d,%d) too short for m=%d k=%d n=%d",
			len(dst), len(a), len(b), m, k, n))
	}
	if m == 0 || k == 0 || n == 0 {
		return
	}
	gemmSplitRows(m, gemmMR, int64(m)*int64(k)*int64(n), func(i0, i1 int) {
		if gemmAsmActive {
			gemmAsmRows(dst, a, b, i0, i1, k, n, m, n, true, false)
		} else {
			gemmTAScalar(dst, a, b, i0, i1, k, n, m)
		}
	})
}

// gemmTAScalar now gets the same panel treatment as Gemm: B is carved into
// (gemmBlockK × gemmBlockN) panels packed densely once and swept by
// i-blocks of A columns, instead of re-reading full-width B rows per
// i-block (which, for batch-wide n, re-streamed megabytes of B through L1
// per 64 output rows). Per-element accumulation order is unchanged
// (l ascends for every (i, j)), so results are bit-identical to the
// pre-packing kernel.
func gemmTAScalar(dst, a, b []float32, i0, i1, k, n, lda int) {
	pp := gemmPanels.Get().(*[]float32)
	panel := *pp
	for j0 := 0; j0 < n; j0 += gemmBlockN {
		jMax := min(j0+gemmBlockN, n)
		jw := jMax - j0
		for l0 := 0; l0 < k; l0 += gemmBlockK {
			lMax := min(l0+gemmBlockK, k)
			for l := l0; l < lMax; l++ {
				copy(panel[(l-l0)*jw:(l-l0)*jw+jw], b[l*n+j0:l*n+jMax])
			}
			for ib := i0; ib < i1; ib += gemmBlockM {
				iMax := min(ib+gemmBlockM, i1)
				for l := l0; l < lMax; l++ {
					ar := a[l*lda+ib : l*lda+iMax]
					br := panel[(l-l0)*jw : (l-l0)*jw+jw]
					for ii, av := range ar {
						if av == 0 {
							continue
						}
						cr := dst[(ib+ii)*n+j0 : (ib+ii)*n+jMax]
						for j, bv := range br {
							cr[j] += av * bv
						}
					}
				}
			}
		}
	}
	gemmPanels.Put(pp)
}

// GemmTB computes dst += a·bᵀ for row-major a (m×k), b (n×k), dst (m×n).
// This is the dW accumulation of the convolution backward pass
// (dW += dY · colsᵀ).
func GemmTB(dst, a, b []float32, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || len(a) < m*k || len(b) < n*k || len(dst) < m*n {
		panic(fmt.Sprintf("tensor: gemmTB operand lengths (%d,%d,%d) too short for m=%d k=%d n=%d",
			len(dst), len(a), len(b), m, k, n))
	}
	if m == 0 || k == 0 || n == 0 {
		return
	}
	gemmSplitRows(m, gemmMR, int64(m)*int64(k)*int64(n), func(i0, i1 int) {
		if gemmAsmActive {
			gemmAsmRows(dst, a, b, i0, i1, k, n, k, k, false, true)
		} else {
			gemmTBScalar(dst, a, b, i0, i1, k, n, k)
		}
	})
}

// gemmTBScalar packs bᵀ panels densely (transposing during the pack) and
// then runs the same axpy sweep as Gemm, instead of the old row-dot-product
// loop that re-read all n B rows once per A row — n×k cold streams per
// output row for the big backward dW shapes. The accumulation for each
// element now folds into dst per l step (ascending), which differs from
// the old separate-accumulator dot product by at most rounding; the
// backward-pass consumers are all tolerance-tested.
func gemmTBScalar(dst, a, b []float32, i0, i1, k, n, ldb int) {
	pp := gemmPanels.Get().(*[]float32)
	panel := *pp
	for j0 := 0; j0 < n; j0 += gemmBlockN {
		jMax := min(j0+gemmBlockN, n)
		jw := jMax - j0
		for l0 := 0; l0 < k; l0 += gemmBlockK {
			lMax := min(l0+gemmBlockK, k)
			for jj := 0; jj < jw; jj++ {
				src := b[(j0+jj)*ldb+l0 : (j0+jj)*ldb+lMax]
				for li, v := range src {
					panel[li*jw+jj] = v
				}
			}
			for i := i0; i < i1; i++ {
				cr := dst[i*n+j0 : i*n+jMax]
				ar := a[i*k+l0 : i*k+lMax]
				for li, av := range ar {
					if av == 0 {
						continue
					}
					br := panel[li*jw : li*jw+jw]
					for j, bv := range br {
						cr[j] += av * bv
					}
				}
			}
		}
	}
	gemmPanels.Put(pp)
}

func checkGemm(ld, la, lb, m, k, n int) {
	if m < 0 || k < 0 || n < 0 || la < m*k || lb < k*n || ld < m*n {
		panic(fmt.Sprintf("tensor: gemm operand lengths dst=%d a=%d b=%d too short for (m=%d)×(k=%d)·(k=%d)×(n=%d): need dst≥%d a≥%d b≥%d",
			ld, la, lb, m, k, k, n, m*n, m*k, k*n))
	}
}

// Linear computes dst = x·wᵀ + bias over a whole batch of rows: x is
// row-major (n × in), w is (out × in) — the Dense layer's natural layout —
// bias is (out) or nil, dst is (n × out), overwritten. It is the batched
// dense-layer kernel: a micro-batch pays the weight-matrix memory traffic
// once instead of once per sample — the dominant cost of the big fully
// connected layers, whose weights dwarf every cache.
//
// The SIMD path does NOT reuse the packed GEMM: Linear's shapes are
// tall-skinny (a micro-batch of rows against a weight matrix that dwarfs
// every cache), where packing the 150 MB-class weight operand costs more
// than the multiply itself. Instead a dedicated dot-product microkernel
// (linearKernel8 in gemm_amd64.s) computes 8 outputs × 8 SIMD lanes per
// call with no packing, streaming each weight row exactly once per batch.
// Its per-element accumulation (8 lane-partial FMA chains folded by a fixed
// tree, plus bias) depends only on `in`, never on the batch size, so a
// row's output is the same bits at any N. The pure-Go
// path keeps the weight-row-outer loop (bias first, then ascending input
// index), bit-identical to the pre-SIMD implementation.
func Linear(dst, x, w, bias []float32, n, in, out int) {
	if n < 0 || in < 0 || out < 0 || len(x) < n*in || len(w) < out*in || len(dst) < n*out ||
		(bias != nil && len(bias) < out) {
		panic(fmt.Sprintf("tensor: linear operand lengths dst=%d x=%d w=%d bias=%d too short for (n=%d)×(in=%d)·(out=%d)×(in=%d): need dst≥%d x≥%d w≥%d",
			len(dst), len(x), len(w), len(bias), n, in, out, in, n*out, n*in, out*in))
	}
	if gemmAsmActive {
		linearAsm(dst, x, w, bias, n, in, out)
		return
	}
	for o := 0; o < out; o++ {
		wr := w[o*in : (o+1)*in]
		var bv float32
		if bias != nil {
			bv = bias[o]
		}
		for i := 0; i < n; i++ {
			xr := x[i*in : (i+1)*in]
			acc := bv
			for l, wv := range wr {
				acc += wv * xr[l]
			}
			dst[i*out+o] = acc
		}
	}
}

// MatMul computes the matrix product of two rank-2 tensors: t (m×k) by
// o (k×n), returning a new (m×n) tensor. It is the tensor-level face of the
// blocked GEMM kernel.
func (t *Tensor) MatMul(o *Tensor) (*Tensor, error) {
	if t.Rank() != 2 || o.Rank() != 2 {
		return nil, fmt.Errorf("tensor: matmul wants rank-2 operands, got %v × %v", t.shape, o.shape)
	}
	m, k := t.shape[0], t.shape[1]
	if o.shape[0] != k {
		return nil, fmt.Errorf("tensor: matmul inner dims mismatch %v × %v", t.shape, o.shape)
	}
	n := o.shape[1]
	out, err := New(m, n)
	if err != nil {
		return nil, err
	}
	Gemm(out.data, t.data, o.data, m, k, n)
	return out, nil
}

// GrowSlice returns buf if it has capacity for n elements (re-sliced to
// length n, contents unspecified) or a freshly allocated slice otherwise.
// It is the reuse primitive behind the per-context scratch buffers.
func GrowSlice[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
