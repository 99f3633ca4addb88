package nn

import (
	"testing"

	"edgetune/internal/sim"
)

// miniBatchStep returns one full training step — zero grads, forward,
// softmax cross-entropy, backward, SGD update — on a small MLP, through
// the public API the profiling plane's "nn.minibatch-step" probe uses.
func miniBatchStep(tb testing.TB) func() {
	tb.Helper()
	rng := sim.NewRNG(1)
	x, labels := blobs(32, rng)
	var layers []Layer
	for _, dims := range [][2]int{{2, 64}, {64, 64}, {64, 2}} {
		layers = append(layers, NewDense(dims[0], dims[1], rng), NewReLU())
	}
	net, err := NewNetwork(layers[:len(layers)-1]...)
	if err != nil {
		tb.Fatal(err)
	}
	opt, err := NewSGD(0.01, 0.9, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		net.ZeroGrad()
		logits := net.Forward(x, true)
		_, grad, err := SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			tb.Fatal(err)
		}
		net.Backward(grad)
		opt.Step(net.Params())
	}
}

// maxStepAllocs bounds the allocations of one miniBatchStep: only the
// public SoftmaxCrossEntropy's gradient (a Matrix and its storage),
// since every layer reuses its workspaces.
const maxStepAllocs = 2

// TestMiniBatchStepAllocs holds the step at maxStepAllocs once the
// first step has sized every workspace.
func TestMiniBatchStepAllocs(t *testing.T) {
	step := miniBatchStep(t)
	if got := testing.AllocsPerRun(20, step); got > maxStepAllocs {
		t.Errorf("training step allocates %v times, want <= %d", got, maxStepAllocs)
	}
}

// BenchmarkMiniBatchStep times one training step, reporting allocs/op.
// This is the same hot loop the profiling plane's "nn.minibatch-step"
// probe measures; a regression here shows up in both places.
func BenchmarkMiniBatchStep(b *testing.B) {
	step := miniBatchStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
