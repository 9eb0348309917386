// Package dataset provides (a) dataset shape descriptors consumed by the
// performance simulator's data-loading cost model, and (b) synthetic
// in-memory datasets used by the numeric training engine.
//
// The paper trains on CIFAR-10 and ImageNet. Neither dataset is available
// (or needed) here: the simulator only requires each dataset's loading
// profile (sample count, storage bytes, decode cost), and the numeric
// engine only requires a learnable task, which a synthetic teacher-labelled
// dataset provides.
package dataset

// Spec describes a dataset's loading profile and sample geometry. All
// quantities are per-sample averages; the simulator multiplies by batch
// size and divides by the host's shared loader bandwidth.
type Spec struct {
	Name     string
	NumTrain int

	// Sample geometry after decode/augmentation, NCHW without batch.
	Channels, Height, Width int

	// StorageBytes is the average on-disk size of one sample (JPEG for
	// ImageNet, raw for CIFAR). This is what the shared disk/page-cache
	// path must deliver.
	StorageBytes int64

	// DecodeCPUSeconds is the average single-core CPU time to decode and
	// augment one sample. ImageNet's JPEG decode dominates its loading
	// cost; CIFAR's is trivial.
	DecodeCPUSeconds float64
}

// CIFAR10 returns the loading profile of CIFAR-10 (50 000 train samples of
// 3×32×32; stored raw, negligible decode cost).
func CIFAR10() Spec {
	return Spec{
		Name:             "cifar10",
		NumTrain:         50000,
		Channels:         3,
		Height:           32,
		Width:            32,
		StorageBytes:     3 * 32 * 32, // raw bytes, one per subpixel
		DecodeCPUSeconds: 2e-6,
	}
}

// ImageNet returns the loading profile of ImageNet-1k training data
// (1 281 167 samples decoded to 3×224×224; ~110 kB average JPEG with a
// non-trivial decode+augment CPU cost).
func ImageNet() Spec {
	return Spec{
		Name:             "imagenet",
		NumTrain:         1281167,
		Channels:         3,
		Height:           224,
		Width:            224,
		StorageBytes:     110 * 1024,
		DecodeCPUSeconds: 3.5e-3,
	}
}

// TokensSynthetic returns the loading profile of the synthetic token
// dataset the transformer workload trains on: numTrain sequences of
// seqLen ids, generated in memory (Channels=1, Height=seqLen, Width=1 —
// sequence geometry mapped onto the NCHW fields the same way the cost
// model maps it). Storage is two bytes per token (uint16 ids) and decode
// is negligible: token workloads are compute-, not loader-, bound.
func TokensSynthetic(numTrain, seqLen int) Spec {
	return Spec{
		Name:             "tokens-synthetic",
		NumTrain:         numTrain,
		Channels:         1,
		Height:           seqLen,
		Width:            1,
		StorageBytes:     2 * int64(seqLen),
		DecodeCPUSeconds: 1e-7,
	}
}

// StepsPerEpoch returns the number of optimizer steps per epoch at the
// given global batch size (floor division, matching drop-last loaders).
func (s Spec) StepsPerEpoch(globalBatch int) int {
	if globalBatch <= 0 {
		panic("dataset: non-positive batch size")
	}
	steps := s.NumTrain / globalBatch
	if steps == 0 {
		steps = 1
	}
	return steps
}
