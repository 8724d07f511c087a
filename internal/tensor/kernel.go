package tensor

import (
	"fmt"
	"os"
	"sort"
)

// Kernel is the swappable matrix-kernel backend behind MatMul, MatMulBT,
// MatMulAT, AddMatMulAT and BatchedPairwiseDot; nn, distributed and serve
// reach these ops only through the package-level entry points.
//
// Contract, which every backend must honor:
//
//   - MatMul, MatMulBT and PairwiseDot receive a zero-filled out.
//     MatMulAT adds into out: each element becomes out + Σ, Σ its own sum,
//     which on a zero-filled out is Σ itself.
//   - Each output element's sum Σ starts from +0 and adds separately
//     rounded products (no fused multiply-add) in ascending p
//     (reduction-index) order, exactly like the pure-Go routines, so
//     swapping backends never changes float32 results — the training
//     golden trajectories are pinned bitwise against them.
//   - The zero rule is fixed per op: MatMul and MatMulAT skip the term of a
//     ±0 element of a; MatMulBT and PairwiseDot keep every product.
//   - The backend owns its parallelism; callers may invoke it from many
//     goroutines at once (the rank-parallel training engine does).
type Kernel interface {
	// Name identifies the backend ("serial", "parallel", ...).
	Name() string
	// MatMul computes out = a @ b for a (m, k), b (k, n), out (m, n).
	MatMul(a, b, out []float32, m, k, n int)
	// MatMulBT computes out = a @ bᵀ for a (m, k), b (n, k), out (m, n).
	MatMulBT(a, b, out []float32, m, k, n int)
	// MatMulAT computes out += aᵀ @ b for a (k, m), b (k, n), out (m, n).
	MatMulAT(a, b, out []float32, k, m, n int)
	// PairwiseDot computes, per sample s of x (bs, f, n), the (f, f) matrix
	// of pairwise dots between x's feature vectors into out (bs, f, f).
	PairwiseDot(x, out []float32, bs, f, n int)
}

// kernels is the backend registry. Guarded by convention rather than a lock:
// registration and selection happen at startup (init, TestMain, or an
// explicit SetKernel before compute starts), never concurrently with running
// ops.
var kernels = map[string]Kernel{
	"serial":   serialKernel{},
	"parallel": parallelKernel{},
}

// active is the backend the package-level ops dispatch to. The parallel
// tiled backend is the default; DMT_KERNEL=serial (or SetKernel) restores
// the single-threaded reference.
var active Kernel = kernels["parallel"]

func init() {
	if name := os.Getenv("DMT_KERNEL"); name != "" {
		if k, ok := kernels[name]; ok {
			active = k
		}
	}
}

// ActiveKernel returns the backend currently in use.
func ActiveKernel() Kernel { return active }

// KernelNames lists the registered backends, sorted.
func KernelNames() []string {
	names := make([]string, 0, len(kernels))
	for n := range kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RegisterKernel adds a backend to the registry. Call before compute
// starts.
func RegisterKernel(k Kernel) {
	kernels[k.Name()] = k
}

// SetKernel selects the backend by name and returns a restore function, so
// tests and benchmarks can bracket a region with a specific backend. Must
// not be called concurrently with running ops.
func SetKernel(name string) (restore func(), err error) {
	k, ok := kernels[name]
	if !ok {
		return nil, fmt.Errorf("tensor: unknown kernel %q (have %v)", name, KernelNames())
	}
	prev := active
	active = k
	return func() { active = prev }, nil
}
