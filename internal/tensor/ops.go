package tensor

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor) *Tensor {
	mustSameShape("Add", a, b)
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	mustSameShape("Sub", a, b)
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns the elementwise (Hadamard) product a * b.
func Mul(a, b *Tensor) *Tensor {
	mustSameShape("Mul", a, b)
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range out.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// AddInPlace accumulates src into dst (dst += src).
func AddInPlace(dst, src *Tensor) {
	mustSameShape("AddInPlace", dst, src)
	addSlices(dst.data, src.data)
}

// addSlices computes dst[i] += src[i] over len(dst) elements, in 8-float
// lanes on an AVX2 host.
func addSlices(dst, src []float32) {
	src = src[:len(dst)]
	if useAVX2 && len(dst) > 0 {
		addAVX2(&dst[0], &src[0], len(dst))
		return
	}
	addSlicesGo(dst, src)
}

// addSlicesGo is the pure-Go addSlices.
func addSlicesGo(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// AXPY computes dst += alpha*src over raw slices; the hot loop of the
// optimizers and sparse gradient accumulation.
func AXPY(alpha float32, src, dst []float32) {
	if len(src) != len(dst) {
		panic("tensor: AXPY length mismatch")
	}
	for i, v := range src {
		dst[i] += alpha * v
	}
}

// AddRowVectorInPlace adds a length-w vector to every row of a (h, w)
// tensor in place. Used for linear-layer biases.
func AddRowVectorInPlace(a, v *Tensor) {
	if len(a.shape) != 2 || len(v.shape) != 1 || a.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVectorInPlace shapes %v, %v", a.shape, v.shape))
	}
	w := a.shape[1]
	for r := 0; r < a.shape[0]; r++ {
		av := a.data[r*w : (r+1)*w]
		for c, bv := range v.data {
			av[c] += bv
		}
	}
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// Dot returns the inner product of two same-length 1-D tensors.
func Dot(a, b *Tensor) float64 {
	if len(a.data) != len(b.data) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range a.data {
		s += float64(a.data[i]) * float64(b.data[i])
	}
	return s
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// SumRows reduces a (h, w) tensor over rows, returning a length-w vector.
// It is the backward of AddRowVectorInPlace with respect to the vector.
func SumRows(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: SumRows requires a 2-D tensor")
	}
	h, w := a.shape[0], a.shape[1]
	out := New(w)
	for r := 0; r < h; r++ {
		row := a.data[r*w : (r+1)*w]
		for c := 0; c < w; c++ {
			out.data[c] += row[c]
		}
	}
	return out
}

// Apply returns f mapped over every element.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = f(v)
	}
	return out
}

func mustSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}
