package nn

import (
	"fmt"

	"dmt/internal/tensor"
)

// CrossNet is the DCN-v2 cross network (Wang et al. 2021): starting from the
// input x0, each layer computes
//
//	x_{l+1} = x0 ⊙ (W_l x_l + b_l) + x_l
//
// so the l-th layer models degree-(l+1) feature crosses explicitly. It is
// both DCN's main interaction module and, in miniature, the DCN tower module
// (Listing 2 of the paper).
type CrossNet struct {
	Dim    int
	Ws, Bs []*Param

	lastX0 *tensor.Tensor
	lastXs []*tensor.Tensor // inputs to each layer: x_0..x_{L-1}
	lastUs []*tensor.Tensor // u_l = W_l x_l + b_l
}

// NewCrossNet builds an L-layer CrossNet over dim-dimensional inputs.
func NewCrossNet(r *tensor.RNG, dim, layers int, name string) *CrossNet {
	c := &CrossNet{Dim: dim}
	for l := 0; l < layers; l++ {
		c.Ws = append(c.Ws, NewParam(fmt.Sprintf("%s.W%d", name, l), tensor.XavierUniform(r, dim, dim, dim, dim)))
		c.Bs = append(c.Bs, NewParam(fmt.Sprintf("%s.B%d", name, l), tensor.New(dim)))
	}
	return c
}

// Layers returns the number of cross layers.
func (c *CrossNet) Layers() int { return len(c.Ws) }

// Forward applies all cross layers to x of shape (B, Dim).
func (c *CrossNet) Forward(x *tensor.Tensor) *tensor.Tensor {
	mustRank2("CrossNet.Forward", x)
	if x.Dim(1) != c.Dim {
		panic(fmt.Sprintf("nn: CrossNet dim %d, input %v", c.Dim, x.Shape()))
	}
	c.lastX0 = x
	c.lastXs = c.lastXs[:0]
	c.lastUs = c.lastUs[:0]
	cur := x
	for l := range c.Ws {
		c.lastXs = append(c.lastXs, cur)
		u := tensor.MatMulBT(cur, c.Ws[l].Value)
		tensor.AddRowVectorInPlace(u, c.Bs[l].Value)
		c.lastUs = append(c.lastUs, u)
		next := tensor.Add(tensor.Mul(c.lastX0, u), cur)
		cur = next
	}
	return cur
}

// Backward propagates dY through all layers, accumulating parameter
// gradients, and returns dX (which includes the x0 skip contributions).
func (c *CrossNet) Backward(dy *tensor.Tensor) *tensor.Tensor {
	if c.lastX0 == nil {
		panic("nn: CrossNet.Backward before Forward")
	}
	dx0 := tensor.New(c.lastX0.Shape()...) // accumulated gradient into x0 across layers
	dcur := dy
	for l := len(c.Ws) - 1; l >= 0; l-- {
		xl := c.lastXs[l]
		ul := c.lastUs[l]
		// y = x0 ⊙ u + x_l
		// ∂/∂x0 += dcur ⊙ u ; ∂/∂u = dcur ⊙ x0 ; ∂/∂x_l += dcur
		tensor.AddInPlace(dx0, tensor.Mul(dcur, ul))
		du := tensor.Mul(dcur, c.lastX0)
		// u = W x_l + b: dW += duᵀ x_l, db += Σ du, dx_l += du W.
		tensor.AddMatMulAT(c.Ws[l].Grad, du, xl)
		tensor.AddInPlace(c.Bs[l].Grad, tensor.SumRows(du))
		dxl := tensor.MatMul(du, c.Ws[l].Value)
		dcur = tensor.Add(dxl, dcur)
	}
	// dcur is now the gradient flowing into x_0 through the recurrence;
	// dx0 holds the gradient through the elementwise x0 products.
	return tensor.Add(dcur, dx0)
}

// Params returns the cross-layer weights and biases.
func (c *CrossNet) Params() []*Param {
	ps := make([]*Param, 0, 2*len(c.Ws))
	for l := range c.Ws {
		ps = append(ps, c.Ws[l], c.Bs[l])
	}
	return ps
}
