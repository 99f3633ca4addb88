package nn

import (
	"fmt"
	"math"

	"edgetune/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy loss over a batch
// of logits against integer labels and the gradient of the loss with
// respect to the logits (softmax - onehot, scaled by 1/batch).
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (loss float64, grad *tensor.Matrix, err error) {
	return softmaxCrossEntropy(nil, logits, labels)
}

// softmaxCrossEntropy is SoftmaxCrossEntropy writing the gradient into
// dst (reshaped by tensor.Reuse), so a training loop can reuse one
// buffer. The buffer first holds the softmax probabilities; each
// label's probability is read before its one-hot 1 is subtracted, so
// the result matches computing probabilities and gradient separately.
func softmaxCrossEntropy(dst, logits *tensor.Matrix, labels []int) (loss float64, grad *tensor.Matrix, err error) {
	if len(labels) != logits.Rows {
		return 0, nil, fmt.Errorf("nn: %d labels for %d logit rows", len(labels), logits.Rows)
	}
	grad = logits.CloneInto(dst)
	grad.SoftmaxRows()
	invN := 1 / float64(logits.Rows)
	for i, label := range labels {
		if label < 0 || label >= logits.Cols {
			return 0, nil, fmt.Errorf("nn: label %d out of range [0,%d)", label, logits.Cols)
		}
		p := grad.At(i, label)
		grad.Set(i, label, p-1)
		// Clamp to avoid log(0) on confidently wrong predictions.
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	grad.Scale(invN)
	return loss * invN, grad, nil
}
