//go:build hotpath

package tensor

import (
	"runtime"
	"testing"
	"time"
)

// TestHotpathParallelMatMulSpeedup is the bench-hotpath-check gate: at
// over-arch shapes the parallel tiled backend must beat the serial kernel
// by at least 1.5x for MatMul and MatMulBT. It is a wall-clock assertion,
// so it builds only under the hotpath tag: `make bench-hotpath-check` runs
// it with -p 1, never beside other packages' tests competing for the same
// cores. Serial and parallel trials alternate, so a burst of outside load
// hits both backends alike, and each backend keeps its best trial.
// Single-core environments skip (there is nothing to fan out over).
func TestHotpathParallelMatMulSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d: parallel speedup needs at least 2 procs", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("wall-clock timing test")
	}
	const m, k, n = 512, 512, 512
	r := NewRNG(1)
	a := RandUniform(r, -1, 1, m, k)
	w := RandUniform(r, -1, 1, k, n)
	wt := RandUniform(r, -1, 1, n, k)
	serial, parallel := kernelPairs(t)
	out := New(m, n)

	timeOnce := func(kr Kernel, op func(kr Kernel)) time.Duration {
		out.Zero()
		start := time.Now()
		op(kr)
		return time.Since(start)
	}
	check := func(name string, op func(kr Kernel)) {
		op(serial) // warmup
		op(parallel)
		ts, tp := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for i := 0; i < 7; i++ {
			ts = min(ts, timeOnce(serial, op))
			tp = min(tp, timeOnce(parallel, op))
		}
		speedup := float64(ts) / float64(tp)
		t.Logf("%s (m=%d k=%d n=%d, %d procs): serial %v, parallel %v — %.2fx",
			name, m, k, n, runtime.GOMAXPROCS(0), ts, tp, speedup)
		if speedup < 1.5 {
			t.Errorf("%s: parallel backend is only %.2fx the serial kernel; the gate requires >= 1.5x",
				name, speedup)
		}
	}
	check("MatMul", func(kr Kernel) { kr.MatMul(a.Data(), w.Data(), out.Data(), m, k, n) })
	check("MatMulBT", func(kr Kernel) { kr.MatMulBT(a.Data(), wt.Data(), out.Data(), m, k, n) })
}
