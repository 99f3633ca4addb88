package nn

import (
	"errors"

	"edgetune/internal/tensor"
)

// Network is a sequential stack of layers with a softmax classification
// head. The zero value is not usable; construct with NewNetwork.
type Network struct {
	layers []Layer
	params []*Param // every layer's parameters, gathered once
}

// NewNetwork builds a sequential network from layers. At least one layer
// is required.
func NewNetwork(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, errors.New("nn: network needs at least one layer")
	}
	n := &Network{layers: layers}
	for _, l := range layers {
		n.params = append(n.params, l.Params()...)
	}
	return n, nil
}

// Forward runs the full stack and returns the logits, which belong to
// the last layer (see Layer).
func (n *Network) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	h := x
	for _, l := range n.layers {
		h = l.Forward(h, train)
	}
	return h
}

// Backward runs the stack in reverse from the loss gradient. Nothing
// consumes the first layer's input gradient, so a Dense first layer
// only accumulates its parameter gradients.
func (n *Network) Backward(grad *tensor.Matrix) {
	g := grad
	for i := len(n.layers) - 1; i > 0; i-- {
		g = n.layers[i].Backward(g)
	}
	if d, ok := n.layers[0].(*Dense); ok {
		d.accumulateParamGrads(g)
	} else {
		n.layers[0].Backward(g)
	}
}

// Params returns every trainable parameter in the network. The slice is
// shared and must not be modified.
func (n *Network) Params() []*Param { return n.params }

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, p := range n.params {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters, used by the
// performance model for memory accounting.
func (n *Network) ParamCount() int {
	var c int
	for _, p := range n.Params() {
		c += p.Count()
	}
	return c
}

// FLOPsPerSample returns the forward-pass FLOPs of the whole network for
// a single sample. The performance model charges backward passes at 2x.
func (n *Network) FLOPsPerSample() float64 {
	var f float64
	for _, l := range n.layers {
		f += l.FLOPsPerSample()
	}
	return f
}

// Predict returns the class index with the highest logit for each row.
func (n *Network) Predict(x *tensor.Matrix) []int {
	return n.Forward(x, false).ArgmaxRows()
}

// Accuracy evaluates classification accuracy on (x, labels).
func (n *Network) Accuracy(x *tensor.Matrix, labels []int) float64 {
	if x.Rows == 0 || len(labels) != x.Rows {
		return 0
	}
	pred := n.Predict(x)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// Layers exposes the layer slice for inspection (read-only use).
func (n *Network) Layers() []Layer { return n.layers }
