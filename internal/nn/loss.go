package nn

import (
	"fmt"
	"math"

	"pipebd/internal/tensor"
)

// MSELoss returns the mean squared error between pred and target together
// with the gradient with respect to pred. This is the per-block
// distillation loss L(Δoutput) from the paper: the student output is
// regressed onto the teacher's output activation. Like every loss here it
// takes the gradient tensor from ar (nil: plain allocation).
func MSELoss(ar *tensor.Arena, pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: MSELoss shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	n := float64(pred.Numel())
	grad := ar.Get(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	var loss float64
	for i := range pd {
		d := float64(pd[i]) - float64(td[i])
		loss += d * d
		gd[i] = float32(2 * d / n)
	}
	return loss / n, grad
}

// KLDivLoss is the temperature-scaled knowledge-distillation loss of
// Hinton et al.: T²·KL(softmax(teacher/T) ‖ softmax(student/T)),
// averaged over rows of the trailing dimension, together with the
// gradient with respect to the student logits
// (T·(softmax(student/T) − softmax(teacher/T))/rows — the T² loss scale
// and the 1/T logit scale leave one net factor of T). Teacher logits are
// treated as constants. Softmax rows are max-subtracted with float64
// accumulation, matching SoftmaxLastDim.
func KLDivLoss(ar *tensor.Arena, student, teacher *tensor.Tensor, temp float64) (float64, *tensor.Tensor) {
	if !student.SameShape(teacher) {
		panic(fmt.Sprintf("nn: KLDivLoss shape mismatch %v vs %v", student.Shape(), teacher.Shape()))
	}
	if temp <= 0 {
		panic(fmt.Sprintf("nn: KLDivLoss temperature %v must be > 0", temp))
	}
	shape := student.Shape()
	c := shape[len(shape)-1]
	rows := student.Numel() / c
	grad := ar.Get(shape...)
	sd, td, gd := student.Data(), teacher.Data(), grad.Data()
	invRows := 1 / float64(rows)
	var loss float64
	logProbs := func(d []float32, lp []float64) {
		maxv := d[0]
		for _, v := range d[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range d {
			lp[j] = float64(v-maxv) / temp
			sum += math.Exp(lp[j])
		}
		logSum := math.Log(sum)
		for j := range lp {
			lp[j] -= logSum
		}
	}
	ls := make([]float64, c)
	lt := make([]float64, c)
	for r := 0; r < rows; r++ {
		logProbs(sd[r*c:(r+1)*c], ls)
		logProbs(td[r*c:(r+1)*c], lt)
		for j := 0; j < c; j++ {
			pt := math.Exp(lt[j])
			loss += pt * (lt[j] - ls[j]) * temp * temp * invRows
			gd[r*c+j] = float32(temp * (math.Exp(ls[j]) - pt) * invRows)
		}
	}
	return loss, grad
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	pred := tensor.ArgMaxRow(logits)
	var correct int
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
