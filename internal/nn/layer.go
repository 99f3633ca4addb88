// Package nn is a from-scratch mini-batch SGD training library. It plays
// the role PyTorch plays in the original EdgeTune prototype: models are
// sequential stacks of layers trained with softmax cross-entropy, and
// every layer reports its parameter and FLOP counts so the performance
// model can charge simulated runtime and energy for training and
// inference.
package nn

import "edgetune/internal/tensor"

// Param is a trainable parameter tensor with its gradient accumulator.
type Param struct {
	W    *tensor.Matrix
	Grad *tensor.Matrix
}

// newParam wraps a weight matrix with a zeroed gradient of the same shape.
func newParam(w *tensor.Matrix) *Param {
	return &Param{W: w, Grad: tensor.New(w.Rows, w.Cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

// Count returns the number of scalar parameters.
func (p *Param) Count() int { return len(p.W.Data) }

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch (rows = samples) and returns the activation.
// Backward consumes the gradient of the loss w.r.t. this layer's output
// and returns the gradient w.r.t. its input, accumulating parameter
// gradients along the way. Backward must be called after Forward with
// train=true on the same batch, with no other Forward of the layer in
// between.
//
// Ownership: a matrix returned by Forward or Backward belongs to the
// layer (or, for a layer that passes its argument through unchanged, to
// whoever owns the argument). It stays valid until the layer's next
// Forward or Backward, which may overwrite it: layers keep per-layer
// workspaces and reuse them across mini-batches, so a training step
// allocates nothing. Callers that need a result longer must Clone it.
// A layer reads its inputs and never writes them, so one layer instance
// must appear at most once in a network.
type Layer interface {
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	Backward(grad *tensor.Matrix) *tensor.Matrix
	Params() []*Param
	// FLOPsPerSample estimates the forward-pass floating point operations
	// for a single input sample; the backward pass is charged at 2x by
	// convention (one pass for activation gradients, one for weights).
	FLOPsPerSample() float64
	// OutDim reports the layer's output width given its input width.
	OutDim(inDim int) int
}
