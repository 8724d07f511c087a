package nn

import (
	"fmt"

	"dmt/internal/tensor"
)

// Linear is a fully connected layer y = x Wᵀ + b with W stored as
// (outFeatures, inFeatures), matching the layout used by the tower-module
// listings in the paper (§4).
type Linear struct {
	In, Out int
	W       *Param // (Out, In)
	B       *Param // (Out)

	lastX *tensor.Tensor
}

// NewLinear creates a Linear layer with Xavier-uniform weights and zero bias.
func NewLinear(r *tensor.RNG, in, out int, name string) *Linear {
	return &Linear{
		In:  in,
		Out: out,
		W:   NewParam(name+".W", tensor.XavierUniform(r, in, out, out, in)),
		B:   NewParam(name+".B", tensor.New(out)),
	}
}

// apply computes y = x Wᵀ + b without touching training state.
func (l *Linear) apply(x *tensor.Tensor) *tensor.Tensor {
	mustRank2("Linear.Forward", x)
	if x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d input features, got shape %v", l.In, x.Shape()))
	}
	y := tensor.MatMulBT(x, l.W.Value)
	tensor.AddRowVectorInPlace(y, l.B.Value)
	return y
}

// Forward computes y = x Wᵀ + b for x of shape (batch, In).
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	out := l.apply(x)
	l.lastX = x
	return out
}

// Backward consumes dY (batch, Out), accumulates dW and dB, and returns
// dX (batch, In).
func (l *Linear) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil {
		panic("nn: Linear.Backward before Forward")
	}
	// dW += dYᵀ · X.
	tensor.AddMatMulAT(l.W.Grad, dy, l.lastX)
	tensor.AddInPlace(l.B.Grad, tensor.SumRows(dy))
	// dX = dY · W.
	return tensor.MatMul(dy, l.W.Value)
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// Forward computes max(x, 0) elementwise.
func (a *ReLU) Forward(x *tensor.Tensor) *tensor.Tensor {
	return a.forwardInto(tensor.New(x.Shape()...), x)
}

// forwardInto writes max(x, 0) into out, which may be x itself, and
// returns out.
func (a *ReLU) forwardInto(out, x *tensor.Tensor) *tensor.Tensor {
	if cap(a.mask) < x.Len() {
		a.mask = make([]bool, x.Len())
	}
	a.mask = a.mask[:x.Len()]
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		a.mask[i] = v > 0
		if v > 0 {
			od[i] = v
		} else {
			od[i] = 0
		}
	}
	return out
}

// Backward gates the upstream gradient by the forward activation mask.
func (a *ReLU) Backward(dy *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(dy.Shape()...)
	dd, od := dy.Data(), out.Data()
	for i := range dd {
		if a.mask[i] {
			od[i] = dd[i]
		}
	}
	return out
}

// Params returns nil: ReLU has no parameters.
func (a *ReLU) Params() []*Param { return nil }

// MLP is a stack of Linear layers with ReLU between them, and optionally a
// ReLU after the final layer (DLRM's bottom MLP ends in ReLU; the top MLP
// emits a raw logit).
type MLP struct {
	Layers    []*Linear
	acts      []*ReLU
	FinalReLU bool
}

// NewMLP builds an MLP mapping in -> sizes[0] -> ... -> sizes[len-1].
func NewMLP(r *tensor.RNG, in int, sizes []int, finalReLU bool, name string) *MLP {
	m := &MLP{FinalReLU: finalReLU}
	prev := in
	for i, s := range sizes {
		m.Layers = append(m.Layers, NewLinear(r, prev, s, fmt.Sprintf("%s.%d", name, i)))
		m.acts = append(m.acts, &ReLU{})
		prev = s
	}
	return m
}

// OutDim returns the dimensionality of the MLP output.
func (m *MLP) OutDim() int { return m.Layers[len(m.Layers)-1].Out }

// Forward applies the stack. Each ReLU runs in place over its Linear
// layer's fresh output, which nothing else holds.
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	for i, l := range m.Layers {
		x = l.Forward(x)
		if i < len(m.Layers)-1 || m.FinalReLU {
			x = m.acts[i].forwardInto(x, x)
		}
	}
	return x
}

// Backward reverses the stack.
func (m *MLP) Backward(dy *tensor.Tensor) *tensor.Tensor {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		if i < len(m.Layers)-1 || m.FinalReLU {
			dy = m.acts[i].Backward(dy)
		}
		dy = m.Layers[i].Backward(dy)
	}
	return dy
}

// Params returns all layer parameters.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
