package nn

import (
	"math"

	"edgetune/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct {
	out  tensor.Matrix
	mask tensor.Matrix // 1 where input > 0
	grad tensor.Matrix
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x).
func (r *ReLU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := x.CloneInto(&r.out)
	if train {
		tensor.Reuse(&r.mask, x.Rows, x.Cols)
	}
	for i, v := range out.Data {
		if v > 0 {
			if train {
				r.mask.Data[i] = 1
			}
		} else {
			out.Data[i] = 0
			if train {
				r.mask.Data[i] = 0
			}
		}
	}
	return out
}

// Backward zeroes gradients where the input was non-positive.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	out := grad.CloneInto(&r.grad)
	out.Hadamard(&r.mask)
	return out
}

// Params returns nil: activations are parameter-free.
func (r *ReLU) Params() []*Param { return nil }

// FLOPsPerSample is negligible for element-wise ops; charged as zero.
func (r *ReLU) FLOPsPerSample() float64 { return 0 }

// OutDim preserves the input width.
func (r *ReLU) OutDim(inDim int) int { return inDim }

// Tanh is the hyperbolic tangent activation, used by the recurrent
// workload family.
type Tanh struct {
	out  tensor.Matrix // the last Forward's output, read by Backward
	grad tensor.Matrix
}

// NewTanh returns a Tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	out := x.CloneInto(&t.out)
	out.Apply(math.Tanh)
	return out
}

// Backward multiplies by 1 - tanh².
func (t *Tanh) Backward(grad *tensor.Matrix) *tensor.Matrix {
	out := grad.CloneInto(&t.grad)
	for i, y := range t.out.Data {
		out.Data[i] *= 1 - y*y
	}
	return out
}

// Params returns nil: activations are parameter-free.
func (t *Tanh) Params() []*Param { return nil }

// FLOPsPerSample is negligible for element-wise ops; charged as zero.
func (t *Tanh) FLOPsPerSample() float64 { return 0 }

// OutDim preserves the input width.
func (t *Tanh) OutDim(inDim int) int { return inDim }
