package tensor

import (
	"fmt"
	"os"
	"testing"
)

func kernelPairs(t *testing.T) (serial, parallel Kernel) {
	t.Helper()
	s, ok := kernels["serial"]
	if !ok {
		t.Fatal("serial kernel not registered")
	}
	p, ok := kernels["parallel"]
	if !ok {
		t.Fatal("parallel kernel not registered")
	}
	return s, p
}

// TestParallelKernelBitwiseMatchesSerial pins the tiled parallel backend
// bitwise against the serial reference, and both against the pure-Go
// routines, across shapes that exercise every tiling edge: rows not a
// multiple of the tile height, partial 4-row slabs and packed panels in
// MatMulBT, single rows/columns, zero entries (the skip-zero path), and the
// layer shapes the benchmark workloads run.
func TestParallelKernelBitwiseMatchesSerial(t *testing.T) {
	serial, parallel := kernelPairs(t)
	r := NewRNG(42)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},
		{4, 8, 4},
		{17, 33, 9},     // odd everything: partial tiles and slabs
		{64, 16, 129},   // wide output
		{256, 512, 512}, // over-arch shape
		{130, 64, 1},
		// train-compute, batch 64 per rank: each layer's forward (MatMulBT),
		// weight gradient (MatMulAT) and input gradient (MatMul) shape.
		{64, 152, 512}, {512, 64, 152}, {64, 512, 152}, // over-arch 152→512
		{64, 512, 256}, {256, 64, 512}, {64, 256, 512}, // 512→256
		{64, 256, 1}, {1, 64, 256}, {64, 1, 256}, // 256→1
		{64, 13, 32}, {32, 64, 13}, {64, 32, 13}, // bottom MLP 13→32
		{64, 32, 16}, {16, 64, 32}, {64, 16, 32}, // 32→16
		// Serving the DMT-DLRM over-arch (44→512→256→1) at batch 1 and 32.
		{1, 44, 512}, {32, 44, 512}, {1, 512, 256}, {32, 512, 256}, {1, 256, 1}, {32, 256, 1},
	}
	for _, sh := range shapes {
		a := RandUniform(r, -2, 2, sh.m, sh.k)
		b := RandUniform(r, -2, 2, sh.k, sh.n)
		bt := RandUniform(r, -2, 2, sh.n, sh.k)
		at := RandUniform(r, -2, 2, sh.k, sh.m)
		g := RandUniform(r, -2, 2, sh.m, sh.n)
		// Sprinkle exact zeros so the skip-zero path runs in both backends.
		for i := 0; i < a.Len(); i += 7 {
			a.Data()[i] = 0
		}
		for i := 0; i < at.Len(); i += 5 {
			at.Data()[i] = 0
		}
		checkAgainstGo(t, fmt.Sprintf("m=%d k=%d n=%d", sh.m, sh.k, sh.n),
			a.Data(), b.Data(), bt.Data(), at.Data(), g.Data(), sh.m, sh.k, sh.n)

		check := func(name string, run func(k Kernel) *Tensor) {
			want := run(serial)
			got := run(parallel)
			if !got.Equal(want) {
				t.Fatalf("%s (m=%d k=%d n=%d): parallel kernel diverged from serial (max abs diff %g)",
					name, sh.m, sh.k, sh.n, got.MaxAbsDiff(want))
			}
			// Determinism across repeated parallel runs (fixed tile ownership,
			// disjoint outputs): rerun and require bit identity again.
			if again := run(parallel); !again.Equal(got) {
				t.Fatalf("%s (m=%d k=%d n=%d): parallel kernel not deterministic across runs", name, sh.m, sh.k, sh.n)
			}
		}
		check("MatMul", func(k Kernel) *Tensor {
			out := New(sh.m, sh.n)
			k.MatMul(a.Data(), b.Data(), out.Data(), sh.m, sh.k, sh.n)
			return out
		})
		check("MatMulBT", func(k Kernel) *Tensor {
			out := New(sh.m, sh.n)
			k.MatMulBT(a.Data(), bt.Data(), out.Data(), sh.m, sh.k, sh.n)
			return out
		})
		check("MatMulAT", func(k Kernel) *Tensor {
			out := New(sh.m, sh.n)
			k.MatMulAT(at.Data(), b.Data(), out.Data(), sh.k, sh.m, sh.n)
			return out
		})
	}
}

func TestParallelPairwiseDotBitwiseMatchesSerial(t *testing.T) {
	serial, parallel := kernelPairs(t)
	r := NewRNG(7)
	for _, sh := range []struct{ b, f, n int }{{1, 1, 1}, {5, 3, 9}, {33, 13, 16}, {64, 26, 64}} {
		x := RandUniform(r, -1, 1, sh.b, sh.f, sh.n)
		want := New(sh.b, sh.f, sh.f)
		serial.PairwiseDot(x.Data(), want.Data(), sh.b, sh.f, sh.n)
		got := New(sh.b, sh.f, sh.f)
		parallel.PairwiseDot(x.Data(), got.Data(), sh.b, sh.f, sh.n)
		if !got.Equal(want) {
			t.Fatalf("PairwiseDot (b=%d f=%d n=%d): parallel kernel diverged from serial", sh.b, sh.f, sh.n)
		}
	}
}

// TestKernelSeam exercises the backend selection surface: SetKernel swaps
// the backend the package-level ops dispatch to and restores cleanly, and a
// registered third-party backend is selectable.
func TestKernelSeam(t *testing.T) {
	if got := ActiveKernel().Name(); got != "parallel" && os.Getenv("DMT_KERNEL") == "" {
		t.Fatalf("default kernel = %q, want parallel", got)
	}
	restore, err := SetKernel("serial")
	if err != nil {
		t.Fatal(err)
	}
	if ActiveKernel().Name() != "serial" {
		t.Fatal("SetKernel(serial) did not take effect")
	}
	r := NewRNG(3)
	a, b := RandUniform(r, -1, 1, 9, 11), RandUniform(r, -1, 1, 11, 5)
	serialOut := MatMul(a, b)
	restore()
	if ActiveKernel().Name() == "serial" {
		t.Fatal("restore did not reinstate the previous kernel")
	}
	if !MatMul(a, b).Equal(serialOut) {
		t.Fatal("backends disagree through the public MatMul entry point")
	}

	if _, err := SetKernel("no-such-backend"); err == nil {
		t.Fatal("SetKernel accepted an unknown backend")
	}

	// A custom backend registers and becomes selectable.
	RegisterKernel(tattleKernel{})
	restore2, err := SetKernel("tattle")
	if err != nil {
		t.Fatal(err)
	}
	defer restore2()
	out := MatMul(a, b)
	for _, v := range out.Data() {
		if v != 42 {
			t.Fatal("registered backend was not dispatched to")
		}
	}
}

// tattleKernel fills outputs with a sentinel so dispatch is observable.
type tattleKernel struct{}

func (tattleKernel) Name() string { return "tattle" }
func (tattleKernel) MatMul(a, b, out []float32, m, k, n int) {
	for i := range out {
		out[i] = 42
	}
}
func (tattleKernel) MatMulBT(a, b, out []float32, m, k, n int) {
	tattleKernel{}.MatMul(a, b, out, m, k, n)
}
func (tattleKernel) MatMulAT(a, b, out []float32, k, m, n int) {
	tattleKernel{}.MatMul(a, b, out, m, k, n)
}
func (tattleKernel) PairwiseDot(x, out []float32, bs, f, n int) {
	tattleKernel{}.MatMul(x, x, out, bs, f, n)
}
