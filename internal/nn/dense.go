package nn

import (
	"math"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// Dense is a fully connected layer: y = x W + b.
type Dense struct {
	in, out int
	w, b    *Param

	lastInput *tensor.Matrix // cached for backward

	// Workspaces reused across mini-batches (see Layer): the output,
	// the input gradient, and this batch's weight and bias gradients.
	y, dx, dw tensor.Matrix
	db        []float64
}

// NewDense creates a dense layer with He-normal initialised weights.
func NewDense(in, out int, rng *sim.RNG) *Dense {
	std := math.Sqrt(2 / float64(in))
	return &Dense{
		in:  in,
		out: out,
		w:   newParam(tensor.Randn(in, out, std, rng)),
		b:   newParam(tensor.New(1, out)),
	}
}

// Forward computes x W + b, caching x when training.
func (d *Dense) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if train {
		d.lastInput = x
	}
	y := tensor.MatMulInto(&d.y, x, d.w.W)
	y.AddRowVec(d.b.W.Data)
	return y
}

// Backward accumulates dW = xᵀ grad and db = colsum(grad), returning
// grad W ᵀ for the upstream layer.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	d.accumulateParamGrads(grad)
	return tensor.MatMulBTInto(&d.dx, grad, d.w.W)
}

// accumulateParamGrads adds this batch's dW and db to the parameter
// gradients without computing the input gradient. Each is summed from
// +0 in its own workspace and then added to Grad, as the temporaries it
// replaces were, so Grad rounds the same even when it was not zero.
func (d *Dense) accumulateParamGrads(grad *tensor.Matrix) {
	d.w.Grad.Add(tensor.MatMulATInto(&d.dw, d.lastInput, grad))
	d.db = grad.ColSumsInto(d.db)
	for i, v := range d.db {
		d.b.Grad.Data[i] += v
	}
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// FLOPsPerSample counts the multiply-adds of one forward pass.
func (d *Dense) FLOPsPerSample() float64 { return 2 * float64(d.in) * float64(d.out) }

// OutDim reports the layer output width.
func (d *Dense) OutDim(int) int { return d.out }

// In reports the layer input width.
func (d *Dense) In() int { return d.in }
