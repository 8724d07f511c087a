package tensor

// useAVX2 routes the GEMM row routines and AddInPlace through the AVX2
// kernels in simd_amd64.s. It is decided once, from the CPU and the OS.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0 enabling both
// the XMM and YMM state).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// gemmAVX2 computes out[i*ldo+j] += Σ_{p<k} a[i*sai+p*sap]·b[p*ldb+j] for
// i < m, j < n, in 8-float lanes across j. Each lane sums its products in
// ascending p from +0 with a separate VMULPS and VADDPS (never FMA), then
// adds the sum to out once. A product whose a element compares equal to
// cmp is masked to +0: cmp = 0 is the zero-skip rule, cmp = NaN (equal to
// nothing) keeps every product. The caller keeps every index in bounds.
//
//go:noescape
func gemmAVX2(out *float32, ldo int, a *float32, sai, sap int, b *float32, ldb, m, k, n int, cmp float32)

// addAVX2 computes dst[i] += src[i] for i < n.
//
//go:noescape
func addAVX2(dst, src *float32, n int)
