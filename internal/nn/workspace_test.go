package nn

import (
	"fmt"
	"math"
	"testing"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// workspaceStack builds a network exercising every workspace: Dense,
// ReLU, a Residual stack (whose skip Adds run in place on layer-owned
// buffers), Dropout, Tanh and the loss.
func workspaceStack(t *testing.T, seed uint64) []Layer {
	t.Helper()
	rng := sim.NewRNG(seed)
	drop, err := NewDropout(0.3, rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	return []Layer{
		NewDense(6, 8, rng), NewReLU(),
		NewResidual(8, rng), NewResidual(8, rng),
		drop,
		NewDense(8, 8, rng), NewTanh(),
		NewDense(8, 3, rng),
	}
}

// freshLayer returns a layer with l's parameters (and, for Dropout, its
// RNG) but no workspace state, as if built anew.
func freshLayer(t *testing.T, l Layer) Layer {
	t.Helper()
	switch l := l.(type) {
	case *Dense:
		return &Dense{in: l.in, out: l.out, w: l.w, b: l.b}
	case *ReLU:
		return NewReLU()
	case *Tanh:
		return NewTanh()
	case *Dropout:
		return &Dropout{rate: l.rate, rng: l.rng}
	case *Residual:
		return &Residual{dim: l.dim, d1: freshLayer(t, l.d1).(*Dense), d2: freshLayer(t, l.d2).(*Dense), relu: NewReLU()}
	}
	t.Fatalf("freshLayer: unhandled layer %T", l)
	return nil
}

// freshNetwork rebuilds layers into a network with no workspace state.
func freshNetwork(t *testing.T, layers []Layer) *Network {
	t.Helper()
	fresh := make([]Layer, len(layers))
	for i, l := range layers {
		fresh[i] = freshLayer(t, l)
	}
	net, err := NewNetwork(fresh...)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randomTask(rows int, rng *sim.RNG) (*tensor.Matrix, []int) {
	x := tensor.Randn(rows, 6, 1, rng)
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	return x, labels
}

// TestWorkspacesMatchFreshNetworks trains one network through Train,
// with its reused workspaces, and a reference that rebuilds a fresh
// network (same parameters, no workspace state) and fresh batch and
// loss buffers for every step. 23 samples at batch 5 end every epoch
// on a short batch of 3, and before every step the Check hook runs an
// inference Forward on a larger batch, which grows every workspace
// before training shrinks it again. Loss, weights, logits and accuracy
// must agree bit for bit.
func TestWorkspacesMatchFreshNetworks(t *testing.T) {
	data := sim.NewRNG(5)
	x, labels := randomTask(23, data)
	evalX, evalLabels := randomTask(41, data)
	const epochs, batch, lr, momentum = 3, 5, 0.05, 0.9

	net, err := NewNetwork(workspaceStack(t, 9)...)
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	stats, err := Train(net, x, labels, TrainConfig{
		Epochs: epochs, BatchSize: batch, LR: lr, Momentum: momentum, Shuffle: true,
		Check: func() error {
			net.Forward(evalX, false)
			evals++
			return nil
		},
	}, sim.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}

	ref := workspaceStack(t, 9)
	opt, err := NewSGD(lr, momentum, 0)
	if err != nil {
		t.Fatal(err)
	}
	shuffle := sim.NewRNG(3)
	var refLoss float64
	steps := 0
	for epoch := 0; epoch < epochs; epoch++ {
		order := shuffle.Perm(x.Rows)
		var epochLoss float64
		var batches int
		for start := 0; start < x.Rows; start += batch {
			idx := order[start:min(start+batch, x.Rows)]
			bx := tensor.New(len(idx), x.Cols)
			by := make([]int, len(idx))
			for i, src := range idx {
				copy(bx.Row(i), x.Row(src))
				by[i] = labels[src]
			}
			step := freshNetwork(t, ref)
			step.ZeroGrad()
			loss, grad, err := SoftmaxCrossEntropy(step.Forward(bx, true), by)
			if err != nil {
				t.Fatal(err)
			}
			step.Backward(grad)
			opt.Step(step.Params())
			epochLoss += loss
			batches++
			steps++
		}
		refLoss = epochLoss / float64(batches)
	}

	if stats.Steps != steps || evals != steps {
		t.Fatalf("Train took %d steps with %d checks, reference %d steps", stats.Steps, evals, steps)
	}
	if math.Float64bits(stats.FinalLoss) != math.Float64bits(refLoss) {
		t.Errorf("final loss %v, fresh-network reference %v", stats.FinalLoss, refLoss)
	}
	refNet := freshNetwork(t, ref)
	for i, p := range net.Params() {
		if err := sameBits(p.W, refNet.Params()[i].W); err != nil {
			t.Errorf("param %d: %v", i, err)
		}
	}
	if err := sameBits(net.Forward(evalX, false), refNet.Forward(evalX, false)); err != nil {
		t.Errorf("inference logits: %v", err)
	}
	got, want := net.Accuracy(evalX, evalLabels), refNet.Accuracy(evalX, evalLabels)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("accuracy %v, fresh-network reference %v", got, want)
	}
}

// TestLossBufferMatchesAllocatingLoss checks the buffered loss against
// SoftmaxCrossEntropy through a stale, too-small and oversized buffer.
func TestLossBufferMatchesAllocatingLoss(t *testing.T) {
	rng := sim.NewRNG(21)
	buf := tensor.Randn(1, 1, 1, rng)
	for _, rows := range []int{7, 2, 9} {
		logits := tensor.Randn(rows, 4, 3, rng)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = rng.Intn(4)
		}
		wantLoss, wantGrad, err := SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		loss, grad, err := softmaxCrossEntropy(buf, logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if grad != buf {
			t.Fatal("buffered loss did not write into its buffer")
		}
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Errorf("rows %d: loss %v, want %v", rows, loss, wantLoss)
		}
		if err := sameBits(grad, wantGrad); err != nil {
			t.Errorf("rows %d: gradient %v", rows, err)
		}
	}
}

// TestFirstLayerSkipsInputGradient pins the work Network.Backward
// saves: the first Dense layer accumulates its parameter gradients but
// never computes the input gradient nothing consumes.
func TestFirstLayerSkipsInputGradient(t *testing.T) {
	rng := sim.NewRNG(4)
	first, last := NewDense(3, 4, rng), NewDense(4, 2, rng)
	net, err := NewNetwork(first, NewReLU(), last)
	if err != nil {
		t.Fatal(err)
	}
	x, labels := tensor.Randn(5, 3, 1, rng), []int{0, 1, 1, 0, 1}
	_, grad, err := SoftmaxCrossEntropy(net.Forward(x, true), labels)
	if err != nil {
		t.Fatal(err)
	}
	net.Backward(grad)
	if first.dx.Data != nil {
		t.Error("first layer computed an input gradient")
	}
	if last.dx.Data == nil {
		t.Error("second Dense layer computed no input gradient")
	}
	if first.w.Grad.FrobeniusNorm() == 0 || first.b.Grad.FrobeniusNorm() == 0 {
		t.Error("first layer accumulated no parameter gradient")
	}
}

// sameBits reports the first element whose bit pattern differs.
func sameBits(got, want *tensor.Matrix) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
			return fmt.Errorf("element %d = %v, want %v", i, got.Data[i], w)
		}
	}
	return nil
}
