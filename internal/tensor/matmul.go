package tensor

import (
	"fmt"
	"math"
	"sync"
)

// MatMul returns a @ b for a of shape (m, k) and b of shape (k, n),
// dispatched through the active kernel backend (see Kernel).
func MatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v, %v", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	active.MatMul(a.data, b.data, out.data, m, k, n)
	return out
}

// MatMulBT returns a @ bᵀ for a of shape (m, k) and b of shape (n, k).
// This is the natural layout for Linear layers storing weights as
// (outFeatures, inFeatures).
func MatMulBT(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulBT shapes %v, %v", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := New(m, n)
	active.MatMulBT(a.data, b.data, out.data, m, k, n)
	return out
}

// MatMulAT returns aᵀ @ b for a of shape (k, m) and b of shape (k, n).
// This is the weight-gradient kernel: dW = dYᵀ @ X in (out, in) layout.
func MatMulAT(a, b *Tensor) *Tensor {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulAT shapes %v, %v", a.shape, b.shape))
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	active.MatMulAT(a.data, b.data, out.data, k, m, n)
	return out
}

// AddMatMulAT accumulates aᵀ @ b into dst of shape (a.Dim(1), b.Dim(1)):
// the weight-gradient update dW += dYᵀ @ X without the product temporary.
// It is bitwise AddInPlace(dst, MatMulAT(a, b)).
func AddMatMulAT(dst, a, b *Tensor) {
	if len(a.shape) != 2 || len(b.shape) != 2 || a.shape[0] != b.shape[0] ||
		len(dst.shape) != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: AddMatMulAT shapes %v, %v, %v", dst.shape, a.shape, b.shape))
	}
	active.MatMulAT(a.data, b.data, dst.data, a.shape[0], a.shape[1], b.shape[1])
}

// BatchedPairwiseDot computes, for a (B, F, N) tensor, the pairwise dot
// products between the F feature vectors of every sample: output (B, F, F)
// with out[b,i,j] = <x[b,i,:], x[b,j,:]>. It is the interaction kernel of
// DLRM; the paper notes a manual pairwise routine outperforms the generated
// batched-GEMV kernel for this layout (§4), which is what this is.
func BatchedPairwiseDot(x *Tensor) *Tensor {
	if len(x.shape) != 3 {
		panic("tensor: BatchedPairwiseDot requires a (B,F,N) tensor")
	}
	b, f, n := x.shape[0], x.shape[1], x.shape[2]
	out := New(b, f, f)
	active.PairwiseDot(x.data, out.data, b, f, n)
	return out
}

// --- Shared row-range routines ---
//
// Both backends compute through the routines below, so the parallel tiled
// kernel is bitwise identical to the serial one by construction: a tile is
// just a row or column range, and every output element accumulates in the
// same ascending-p order regardless of which worker owns its tile. On an
// AVX2 host each routine hands its range to gemmAVX2, which keeps that order
// and the op's zero rule lane by lane; elsewhere the pure-Go routine runs.
// The pure-Go routines are also the oracle the SIMD path is fuzzed against.

// Zero rules for gemm: skipZero drops the term of a ±0 broadcast value
// (MatMul, MatMulAT); keepAll keeps every product (MatMulBT).
var (
	skipZero float32
	keepAll  = float32(math.NaN())
)

// gemm computes out[i*ldo+j] += Σ_p a[i*sai+p*sap]·b[p*ldb+j] for i < m,
// j < n, p < k through gemmAVX2, after checking that the last element it
// touches in each operand is in bounds.
func gemm(out []float32, ldo int, a []float32, sai, sap int, b []float32, ldb, m, k, n int, cmp float32) {
	if k == 0 {
		// An empty sum is +0, and out + 0 still turns a -0 into +0.
		for i := 0; i < m; i++ {
			orow := out[i*ldo : i*ldo+n]
			for j := range orow {
				orow[j] += 0
			}
		}
		return
	}
	if m == 0 || n == 0 {
		return
	}
	_ = out[(m-1)*ldo+n-1]
	_ = a[(m-1)*sai+(k-1)*sap]
	_ = b[(k-1)*ldb+n-1]
	gemmAVX2(&out[0], ldo, &a[0], sai, sap, &b[0], ldb, m, k, n, cmp)
}

// matMulRows computes rows [lo, hi) of a @ b.
func matMulRows(a, b, out []float32, k, n, lo, hi int) {
	if useAVX2 {
		gemm(out[lo*n:], n, a[lo*k:], k, 1, b, n, hi-lo, k, n, skipZero)
		return
	}
	matMulRowsGo(a, b, out, k, n, lo, hi)
}

// matMulRowsGo is the pure-Go matMulRows. The ikj loop order keeps the
// inner loop streaming over b's rows.
func matMulRowsGo(a, b, out []float32, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// Packed MatMulBT: bᵀ is copied into panels of btPanel columns laid out
// (k, btPanel), so gemmAVX2 streams each panel like a row-major b. Packing
// costs one pass over b per call, which pays off from btPackRows rows and
// btPackCols columns: against matMulBT4 at k=512, n=256, one row runs 1.5x
// slower packed and four rows 2x faster; a one-column output wastes 7 of 8
// lanes.
const (
	btPanel    = 32
	btPackRows = 4
	btPackCols = 8
)

// panelPool recycles packing panels across calls and workers.
var panelPool = sync.Pool{New: func() any { return new([]float32) }}

// matMulBTCols computes columns [lo, hi) of a @ bᵀ for all m rows.
func matMulBTCols(a, b, out []float32, m, k, n, lo, hi int) {
	if !useAVX2 || m < btPackRows || hi-lo < btPackCols || k == 0 {
		matMulBTColsGo(a, b, out, m, k, n, lo, hi)
		return
	}
	buf := panelPool.Get().(*[]float32)
	if cap(*buf) < k*btPanel {
		*buf = make([]float32, k*btPanel)
	}
	panel := (*buf)[:k*btPanel]
	for j0 := lo; j0 < hi; j0 += btPanel {
		w := min(btPanel, hi-j0)
		for p := 0; p < k; p++ {
			prow := panel[p*btPanel : p*btPanel+w]
			for jj := range prow {
				prow[jj] = b[(j0+jj)*k+p]
			}
		}
		gemm(out[j0:], n, a, k, 1, panel, btPanel, m, k, w, keepAll)
	}
	panelPool.Put(buf)
}

// matMulBTColsGo is the pure-Go matMulBTCols. Full 4-row slabs take the
// register-tiled kernel: 16 independent accumulators break the dot
// product's loop-carried dependency chain and each weight row is loaded
// once per 4 samples — the kernel-level reason batched inference beats 4
// single-sample calls. Every output keeps the same p-order accumulation, so
// results are bitwise identical across slab shapes and batch sizes.
func matMulBTColsGo(a, b, out []float32, m, k, n, lo, hi int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		matMulBT4(a[i*k:(i+4)*k], b, out[i*n:(i+4)*n], k, n, lo, hi)
	}
	for ; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := lo; j < hi; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s
		}
	}
}

// matMulBT4 computes columns [lo, hi) of a 4-row slab of a @ bᵀ: a is
// (4, k), b is (n, k), out is (4, n).
func matMulBT4(a, b, out []float32, k, n, lo, hi int) {
	a0, a1, a2, a3 := a[0:k], a[k:2*k], a[2*k:3*k], a[3*k:4*k]
	j := lo
	for ; j+4 <= hi; j += 4 {
		b0, b1, b2, b3 := b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k], b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k]
		var s00, s01, s02, s03 float32
		var s10, s11, s12, s13 float32
		var s20, s21, s22, s23 float32
		var s30, s31, s32, s33 float32
		for p := 0; p < k; p++ {
			av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
			bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
			s00 += av0 * bv0
			s01 += av0 * bv1
			s02 += av0 * bv2
			s03 += av0 * bv3
			s10 += av1 * bv0
			s11 += av1 * bv1
			s12 += av1 * bv2
			s13 += av1 * bv3
			s20 += av2 * bv0
			s21 += av2 * bv1
			s22 += av2 * bv2
			s23 += av2 * bv3
			s30 += av3 * bv0
			s31 += av3 * bv1
			s32 += av3 * bv2
			s33 += av3 * bv3
		}
		out[j], out[j+1], out[j+2], out[j+3] = s00, s01, s02, s03
		out[n+j], out[n+j+1], out[n+j+2], out[n+j+3] = s10, s11, s12, s13
		out[2*n+j], out[2*n+j+1], out[2*n+j+2], out[2*n+j+3] = s20, s21, s22, s23
		out[3*n+j], out[3*n+j+1], out[3*n+j+2], out[3*n+j+3] = s30, s31, s32, s33
	}
	for ; j < hi; j++ {
		brow := b[j*k : (j+1)*k]
		var s0, s1, s2, s3 float32
		for p := 0; p < k; p++ {
			bv := brow[p]
			s0 += a0[p] * bv
			s1 += a1[p] * bv
			s2 += a2[p] * bv
			s3 += a3[p] * bv
		}
		out[j], out[n+j], out[2*n+j], out[3*n+j] = s0, s1, s2, s3
	}
}

// matMulATRows adds rows [lo, hi) of aᵀ @ b into out, for a (k, m) and
// b (k, n): each element becomes out + Σ, Σ its product sum.
func matMulATRows(a, b, out []float32, k, m, n, lo, hi int) {
	if useAVX2 {
		gemm(out[lo*n:], n, a[lo:], 1, m, b, n, hi-lo, k, n, skipZero)
		return
	}
	matMulATRowsGo(a, b, out, k, m, n, lo, hi)
}

// atChunk is the column chunk matMulATRowsGo sums on the stack before
// adding it into out.
const atChunk = 64

// matMulATRowsGo is the pure-Go matMulATRows.
func matMulATRowsGo(a, b, out []float32, k, m, n, lo, hi int) {
	var acc [atChunk]float32
	for i := lo; i < hi; i++ {
		for j0 := 0; j0 < n; j0 += atChunk {
			s := acc[:min(atChunk, n-j0)]
			clear(s)
			for p := 0; p < k; p++ {
				av := a[p*m+i]
				if av == 0 {
					continue
				}
				brow := b[p*n+j0 : p*n+j0+len(s)]
				for j := range s {
					s[j] += av * brow[j]
				}
			}
			orow := out[i*n+j0 : i*n+j0+len(s)]
			for j := range s {
				orow[j] += s[j]
			}
		}
	}
}

// pairwiseDotSamples computes samples [lo, hi) of the batched pairwise-dot
// interaction.
func pairwiseDotSamples(x, out []float32, f, n, lo, hi int) {
	for s := lo; s < hi; s++ {
		base := x[s*f*n : (s+1)*f*n]
		obase := out[s*f*f : (s+1)*f*f]
		for i := 0; i < f; i++ {
			vi := base[i*n : (i+1)*n]
			for j := i; j < f; j++ {
				vj := base[j*n : (j+1)*n]
				var dot float32
				for p := 0; p < n; p++ {
					dot += vi[p] * vj[p]
				}
				obase[i*f+j] = dot
				obase[j*f+i] = dot
			}
		}
	}
}

// serialKernel is the single-threaded reference backend: the baseline the
// parallel backend is pinned against, and the fallback for single-core runs
// (DMT_KERNEL=serial).
type serialKernel struct{}

func (serialKernel) Name() string { return "serial" }

func (serialKernel) MatMul(a, b, out []float32, m, k, n int) {
	matMulRows(a, b, out, k, n, 0, m)
}

func (serialKernel) MatMulBT(a, b, out []float32, m, k, n int) {
	matMulBTCols(a, b, out, m, k, n, 0, n)
}

func (serialKernel) MatMulAT(a, b, out []float32, k, m, n int) {
	matMulATRows(a, b, out, k, m, n, 0, m)
}

func (serialKernel) PairwiseDot(x, out []float32, bs, f, n int) {
	pairwiseDotSamples(x, out, f, n, 0, bs)
}
