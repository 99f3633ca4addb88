package nn

import (
	"fmt"

	"edgetune/internal/sim"
	"edgetune/internal/tensor"
)

// TrainConfig bundles the training hyperparameters of mini-batch SGD.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	Momentum    float64
	WeightDecay float64
	// Shuffle controls whether samples are re-permuted each epoch.
	Shuffle bool
	// Check, when non-nil, is polled before every mini-batch; a
	// non-nil return aborts training with that error, so long runs
	// respond to cancellation between chunks rather than only at the
	// call boundary.
	Check func() error
}

// TrainStats reports what a training run actually did, so the performance
// model can charge simulated time and energy for it.
type TrainStats struct {
	Epochs      int
	Steps       int     // optimiser steps taken
	SamplesSeen int     // total samples propagated (fw+bw)
	FinalLoss   float64 // mean loss of the last epoch
}

// Train runs mini-batch SGD on (x, labels) for cfg.Epochs epochs and
// returns run statistics. x rows are samples; labels has one class index
// per row.
func Train(net *Network, x *tensor.Matrix, labels []int, cfg TrainConfig, rng *sim.RNG) (TrainStats, error) {
	var stats TrainStats
	if x.Rows != len(labels) {
		return stats, fmt.Errorf("nn: %d samples but %d labels", x.Rows, len(labels))
	}
	if cfg.Epochs <= 0 {
		return stats, fmt.Errorf("nn: epochs %d must be positive", cfg.Epochs)
	}
	if cfg.BatchSize <= 0 {
		return stats, fmt.Errorf("nn: batch size %d must be positive", cfg.BatchSize)
	}
	opt, err := NewSGD(cfg.LR, cfg.Momentum, cfg.WeightDecay)
	if err != nil {
		return stats, err
	}

	n := x.Rows
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// The step's buffers are reused across mini-batches, as the layers
	// reuse theirs, so a step allocates nothing.
	params := net.Params()
	var bx, lossGrad tensor.Matrix
	by := make([]int, min(cfg.BatchSize, n))

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.Shuffle && rng != nil {
			order = rng.Perm(n)
		}
		var epochLoss float64
		var batches int
		for start := 0; start < n; start += cfg.BatchSize {
			if cfg.Check != nil {
				if err := cfg.Check(); err != nil {
					return stats, err
				}
			}
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			batch, batchLabels := gatherBatch(&bx, by, x, labels, order[start:end])

			net.ZeroGrad()
			logits := net.Forward(batch, true)
			loss, grad, err := softmaxCrossEntropy(&lossGrad, logits, batchLabels)
			if err != nil {
				return stats, err
			}
			net.Backward(grad)
			opt.Step(params)

			epochLoss += loss
			batches++
			stats.Steps++
			stats.SamplesSeen += end - start
		}
		if batches > 0 {
			stats.FinalLoss = epochLoss / float64(batches)
		}
		stats.Epochs++
	}
	return stats, nil
}

// gatherBatch copies the selected rows into a contiguous batch, held in
// bx (reshaped by tensor.Reuse) and the first len(idx) entries of by.
func gatherBatch(bx *tensor.Matrix, by []int, x *tensor.Matrix, labels []int, idx []int) (*tensor.Matrix, []int) {
	bx = tensor.Reuse(bx, len(idx), x.Cols)
	by = by[:len(idx)]
	for i, src := range idx {
		copy(bx.Row(i), x.Row(src))
		by[i] = labels[src]
	}
	return bx, by
}
