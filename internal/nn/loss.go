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
// takes the gradient tensor from ar (nil: plain allocation). It is
// tensor.MSEInto: the gradient float32(2·d/n) elementwise, and the float64
// sum of d² in four interleaved partial sums (element j to sum j mod 4),
// combined as (s0+s1)+(s2+s3), then the elements past the last whole
// group of four in order.
func MSELoss(ar *tensor.Arena, pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("nn: MSELoss shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	grad := ar.Get(pred.Shape()...)
	return tensor.MSEInto(grad.Data(), pred.Data(), target.Data()), grad
}

// KLDivLoss is the temperature-scaled knowledge-distillation loss of
// Hinton et al.: T²·KL(softmax(teacher/T) ‖ softmax(student/T)),
// averaged over rows of the trailing dimension, together with the
// gradient with respect to the student logits
// (T·(softmax(student/T) − softmax(teacher/T))/rows — the T² loss scale
// and the 1/T logit scale leave one net factor of T). Teacher logits are
// treated as constants. Softmax rows are max-subtracted with float64
// accumulation, matching tensor.SoftmaxInto.
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
	// stats returns a row's maximum and the log of its softmax sum; each
	// log-prob is then float64(v−max)/T − logSum, computed where it is
	// read, so no row buffer is needed.
	stats := func(d []float32) (maxv float32, logSum float64) {
		maxv = d[0]
		for _, v := range d[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range d {
			sum += math.Exp(float64(v-maxv) / temp)
		}
		return maxv, math.Log(sum)
	}
	for r := 0; r < rows; r++ {
		srow, trow, grow := sd[r*c:(r+1)*c], td[r*c:(r+1)*c], gd[r*c:(r+1)*c]
		maxS, logSumS := stats(srow)
		maxT, logSumT := stats(trow)
		for j, v := range srow {
			ls := float64(v-maxS)/temp - logSumS
			lt := float64(trow[j]-maxT)/temp - logSumT
			pt := math.Exp(lt)
			loss += float64(pt * (lt - ls) * temp * temp * invRows)
			grow[j] = float32(temp * (math.Exp(ls) - pt) * invRows)
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
