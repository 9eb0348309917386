package dataset

import (
	"math/rand"

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

// NewRandom generates n uniformly random samples with uniformly random
// labels. Useful for memorization and throughput tests.
func NewRandom(rng *rand.Rand, n, c, h, w, classes int) *Synthetic {
	s := &Synthetic{
		X:       tensor.Rand(rng, -1, 1, n, c, h, w),
		Labels:  make([]int, n),
		Classes: classes,
	}
	for i := range s.Labels {
		s.Labels[i] = rng.Intn(classes)
	}
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
