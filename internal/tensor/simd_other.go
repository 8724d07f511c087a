//go:build !amd64

package tensor

// useAVX2 is false off amd64: every op runs its pure-Go routine.
const useAVX2 = false

func gemmAVX2(out *float32, ldo int, a *float32, sai, sap int, b *float32, ldb, m, k, n int, cmp float32) {
	panic("tensor: no AVX2 kernel on this architecture")
}

func addAVX2(dst, src *float32, n int) {
	panic("tensor: no AVX2 kernel on this architecture")
}
