package tensor

import (
	"fmt"
	"testing"
)

// Over-arch layer shapes: the batched activations (m = batch) against the
// wide MLP weight matrices the paper's dense tower is made of, then the
// train-compute benchmark's per-rank batch of 64 through its over-arch
// (152→512→256→1) and bottom MLP (13→32→16) layers.
var hotpathShapes = []struct{ m, k, n int }{
	{256, 512, 512},
	{512, 512, 512},
	{64, 152, 512},
	{64, 512, 256},
	{64, 256, 1},
	{64, 13, 32},
	{64, 32, 16},
}

// BenchmarkHotpathMatMul compares the serial and parallel tiled backends at
// over-arch shapes (`make bench-hotpath`); the before/after table in the
// README's hot-path section comes from this run.
func BenchmarkHotpathMatMul(b *testing.B) {
	benchmarkKernels(b, func(k Kernel, a, w, out []float32, m, kk, n int) {
		k.MatMul(a, w, out, m, kk, n)
	})
}

// BenchmarkHotpathMatMulBT is the Linear-layer layout (weights stored
// (out, in)): the serve predict path's kernel.
func BenchmarkHotpathMatMulBT(b *testing.B) {
	benchmarkKernels(b, func(k Kernel, a, w, out []float32, m, kk, n int) {
		k.MatMulBT(a, w, out, m, kk, n)
	})
}

// BenchmarkHotpathMatMulAT is the weight-gradient kernel; a is read as
// (k, m).
func BenchmarkHotpathMatMulAT(b *testing.B) {
	benchmarkKernels(b, func(k Kernel, a, w, out []float32, m, kk, n int) {
		k.MatMulAT(a, w, out, kk, m, n)
	})
}

func benchmarkKernels(b *testing.B, run func(k Kernel, a, w, out []float32, m, kk, n int)) {
	for _, name := range []string{"serial", "parallel"} {
		k := kernels[name]
		for _, sh := range hotpathShapes {
			b.Run(fmt.Sprintf("%s/m=%d,k=%d,n=%d", name, sh.m, sh.k, sh.n), func(b *testing.B) {
				r := NewRNG(1)
				a := RandUniform(r, -1, 1, sh.m, sh.k)
				w := RandUniform(r, -1, 1, sh.k, sh.n)
				out := New(sh.m, sh.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out.Zero() // kernel contract: out arrives zero-filled
					run(k, a.Data(), w.Data(), out.Data(), sh.m, sh.k, sh.n)
				}
			})
		}
	}
}
