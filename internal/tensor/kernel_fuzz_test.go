package tensor

import (
	"math"
	"testing"
)

// specialValues are the inputs where a lane kernel can part from the
// scalar one: signed zeros (the zero-skip rule and the +0 start), infinities
// and NaN (0·Inf under a skipped or masked term), subnormals and overflow.
var specialValues = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	0x1p-127, -0x1p-130, math.MaxFloat32, -math.MaxFloat32,
}

// sameBits reports whether two results are bit-identical; any NaN matches
// any NaN, since NaN payloads may legitimately differ between kernels.
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: element %d = %g (%#08x), pure-Go routine gives %g (%#08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// checkAgainstGo runs every GEMM op, the dW-accumulate form and AddInPlace
// through both registered backends and requires bit identity with the
// pure-Go routines. a is (m, k), b (k, n), bt (n, k), at (k, m) and g (m, n).
func checkAgainstGo(t *testing.T, label string, a, b, bt, at, g []float32, m, k, n int) {
	t.Helper()
	wantMM := make([]float32, m*n)
	matMulRowsGo(a, b, wantMM, k, n, 0, m)
	wantBT := make([]float32, m*n)
	matMulBTColsGo(a, bt, wantBT, m, k, n, 0, n)
	wantAT := make([]float32, m*n)
	matMulATRowsGo(at, b, wantAT, k, m, n, 0, m)
	// The dW-accumulate oracle is the unfused composition
	// AddInPlace(g, MatMulAT(at, b)).
	wantAcc := append([]float32(nil), g...)
	addSlicesGo(wantAcc, wantAT)

	goAcc := append([]float32(nil), g...)
	matMulATRowsGo(at, b, goAcc, k, m, n, 0, m)
	requireSameBits(t, label+" pure-Go dW-accumulate vs composition", goAcc, wantAcc)

	for _, name := range []string{"serial", "parallel"} {
		kr := kernels[name]
		got := make([]float32, m*n)
		kr.MatMul(a, b, got, m, k, n)
		requireSameBits(t, label+" "+name+" MatMul", got, wantMM)
		clear(got)
		kr.MatMulBT(a, bt, got, m, k, n)
		requireSameBits(t, label+" "+name+" MatMulBT", got, wantBT)
		clear(got)
		kr.MatMulAT(at, b, got, k, m, n)
		requireSameBits(t, label+" "+name+" MatMulAT", got, wantAT)
		copy(got, g)
		kr.MatMulAT(at, b, got, k, m, n)
		requireSameBits(t, label+" "+name+" dW-accumulate", got, wantAcc)
	}

	wantAdd := append([]float32(nil), g...)
	addSlicesGo(wantAdd, wantMM)
	gotAdd := append([]float32(nil), g...)
	addSlices(gotAdd, wantMM)
	requireSameBits(t, label+" AddInPlace", gotAdd, wantAdd)
}

// FuzzKernelBitwise is the differential fuzzer behind the SIMD kernels: it
// draws m on both sides of btPackRows, k down to 0, n across the n%32 and
// n%8 lane tails, a zero density, and a density of injected ±0, ±Inf, NaN,
// subnormal and overflow values.
func FuzzKernelBitwise(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5), uint8(7), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(4), uint8(0), uint8(32), uint8(64), uint8(0))
	f.Add(uint64(3), uint8(17), uint8(33), uint8(71), uint8(128), uint8(16))
	f.Add(uint64(4), uint8(39), uint8(70), uint8(79), uint8(40), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, m8, k8, n8, zeroRate, specialRate uint8) {
		m, k, n := int(m8%40)+1, int(k8%72), int(n8%80)+1
		r := NewRNG(seed)
		fill := func(size int) []float32 {
			x := make([]float32, size)
			for i := range x {
				switch u := r.Intn(256); {
				case u < int(zeroRate):
					x[i] = 0
				case u < int(zeroRate)+int(specialRate):
					x[i] = specialValues[r.Intn(len(specialValues))]
				default:
					x[i] = float32(r.Float64()*4 - 2)
				}
			}
			return x
		}
		checkAgainstGo(t, "fuzz", fill(m*k), fill(k*n), fill(n*k), fill(k*m), fill(m*n), m, k, n)
	})
}
