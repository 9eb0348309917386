package tensor

import (
	"math"
	"math/rand"
)

// Rand returns a tensor with elements drawn uniformly from [lo, hi) using
// the provided source, which makes results reproducible across runs.
func Rand(rng *rand.Rand, lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	RandInto(t, rng, lo, hi)
	return t
}

// RandInto is Rand into t: the same draws, in the same order.
func RandInto(t *Tensor, rng *rand.Rand, lo, hi float32) {
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + float32(span*rng.Float32())
	}
}

// Randn returns a tensor with elements drawn from N(mean, std²).
func Randn(rng *rand.Rand, mean, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = mean + float32(std*float32(rng.NormFloat64()))
	}
	return t
}

// KaimingNormal fills and returns a tensor with Kaiming-normal
// initialization for the given fan-in, the standard initializer for
// ReLU-activated convolutional and linear layers.
func KaimingNormal(rng *rand.Rand, fanIn int, shape ...int) *Tensor {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	return Randn(rng, 0, std, shape...)
}

// XavierUniform fills and returns a tensor with Xavier-uniform
// initialization for the given fan-in and fan-out.
func XavierUniform(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	limit := float32(math.Sqrt(6.0 / float64(fanIn+fanOut)))
	return Rand(rng, -limit, limit, shape...)
}
