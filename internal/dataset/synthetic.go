package dataset

import (
	"math/bits"

	"pipebd/internal/tensor"
)

// Batch is one training mini-batch for the numeric engine.
type Batch struct {
	X      *tensor.Tensor // [B, C, H, W] images, or [B, L] token ids
	Labels []int
}

// Synthetic is an in-memory dataset for the numeric engine. Samples are
// laid out along dimension 0; the trailing dimensions are workload-shaped
// ([C, H, W] images for the conv families, [L] token ids for the
// transformer family).
type Synthetic struct {
	X       *tensor.Tensor // [N, ...sample dims]
	Labels  []int
	Classes int
}

// Synthetic data is a function of (seed, sample): sample i's values are
// SplitMix64's stream from a state keyed by (seed, i) — its label first,
// then its elements in order — so any row of any batch is built alone, in
// O(row), with the bits the whole dataset gives it.

const gamma = 0x9e3779b97f4a7c15 // SplitMix64's increment

// mix64 is SplitMix64's output function.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// sampleKey is the state sample i's stream under seed counts up from.
func sampleKey(seed int64, i int) uint64 {
	return mix64(uint64(seed) ^ mix64(uint64(i)*gamma+gamma))
}

// below maps a draw to [0, n) by multiply-shift.
func below(x uint64, n int) int {
	hi, _ := bits.Mul64(x, uint64(n))
	return int(hi)
}

// unit maps a draw's top 24 bits to a float32 in [-1, 1), exactly.
func unit(x uint64) float32 {
	return float32(int32(x>>40)-1<<23) * (1.0 / (1 << 23))
}

// ImageRows builds consecutive image samples of seed's data, starting at
// sample first: x takes len(x)/per samples of per values each, uniform in
// [-1, 1), and labels, unless nil, their labels, uniform in [0, classes).
func ImageRows(seed int64, first, per, classes int, x []float32, labels []int) {
	for r := 0; r*per < len(x); r++ {
		k := sampleKey(seed, first+r) + gamma
		if labels != nil {
			labels[r] = below(mix64(k), classes)
		}
		row := x[r*per : (r+1)*per]
		for j := range row {
			k += gamma
			row[j] = unit(mix64(k))
		}
	}
}

// TokenRows is ImageRows for token sequences: each sample is per ids,
// uniform in [0, vocab) and stored as float32 values.
func TokenRows(seed int64, first, per, vocab, classes int, x []float32, labels []int) {
	for r := 0; r*per < len(x); r++ {
		k := sampleKey(seed, first+r) + gamma
		if labels != nil {
			labels[r] = below(mix64(k), classes)
		}
		row := x[r*per : (r+1)*per]
		for j := range row {
			k += gamma
			row[j] = float32(below(mix64(k), vocab))
		}
	}
}

// NewRandom generates n uniformly random [c, h, w] samples in [-1, 1)
// with uniformly random labels, as a function of seed (ImageRows). Useful
// for memorization and throughput tests.
func NewRandom(seed int64, n, c, h, w, classes int) *Synthetic {
	s := &Synthetic{X: tensor.New(n, c, h, w), Labels: make([]int, n), Classes: classes}
	ImageRows(seed, 0, c*h*w, classes, s.X.Data(), s.Labels)
	return s
}

// Len returns the number of samples.
func (s *Synthetic) Len() int { return len(s.Labels) }

// slice copies samples [start,end) into a fresh tensor, preserving the
// per-sample trailing dimensions.
func (s *Synthetic) slice(start, end int) *tensor.Tensor {
	shape := s.X.Shape()
	per := 1
	outShape := make([]int, len(shape))
	outShape[0] = end - start
	for i, d := range shape[1:] {
		per *= d
		outShape[i+1] = d
	}
	out := tensor.New(outShape...)
	copy(out.Data(), s.X.Data()[start*per:end*per])
	return out
}

// Batches splits the dataset into fixed-size batches in deterministic
// order, dropping the final partial batch (drop-last semantics, matching
// StepsPerEpoch). Deterministic order is essential for the bit-equivalence
// experiments.
func (s *Synthetic) Batches(batchSize int) []Batch {
	if batchSize <= 0 {
		panic("dataset: non-positive batch size")
	}
	var out []Batch
	for start := 0; start+batchSize <= s.Len(); start += batchSize {
		end := start + batchSize
		out = append(out, Batch{
			X:      s.slice(start, end),
			Labels: append([]int(nil), s.Labels[start:end]...),
		})
	}
	return out
}
