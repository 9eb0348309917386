package distill

import (
	"fmt"
	"math/rand"

	"pipebd/internal/nn"
)

// TransformerConfig sizes the miniature transformer distillation
// workbench: DistilBERT-style blockwise distillation where each block is
// one encoder layer, the student keeps the teacher's hidden width (so
// block-boundary activations align for the per-block loss) but runs a
// much narrower MLP, and the final block distills classifier logits with
// KL-with-temperature instead of hidden-state MSE.
type TransformerConfig struct {
	Seed      int64
	Blocks    int
	Dim       int // hidden width at every block boundary
	Heads     int // attention heads (must divide Dim)
	TeacherFF int // teacher MLP hidden width
	StudentFF int // student MLP hidden width
	SeqLen    int
	Vocab     int
	Classes   int     // classifier width of the final block (0: no classifier)
	Temp      float64 // KL temperature for the logit block; <= 0 means 1
}

// DefaultTransformerConfig returns the configuration the transformer
// equivalence tests use: four blocks, matching the conv workbench so
// every existing cluster plan applies unchanged.
func DefaultTransformerConfig() TransformerConfig {
	return TransformerConfig{
		Seed: 46, Blocks: 4, Dim: 8, Heads: 2,
		TeacherFF: 32, StudentFF: 8,
		SeqLen: 6, Vocab: 16, Classes: 4, Temp: 2,
	}
}

// encoderLayer is one pre-classifier transformer block: self-attention
// and MLP residuals, each followed by a LayerNorm.
func encoderLayer(rng *rand.Rand, dim, heads, ff int) []nn.Layer {
	return []nn.Layer{
		nn.NewResidual(nn.NewMultiHeadAttention(rng, dim, heads)),
		nn.NewLayerNorm(dim),
		nn.NewResidual(nn.NewFeedForward(rng, dim, ff)),
		nn.NewLayerNorm(dim),
	}
}

// NewTransformerWorkbench builds a reproducible transformer distillation
// workload. Block 0 embeds [N, SeqLen] token ids and runs one encoder
// layer; middle blocks are encoder layers over [N, SeqLen, Dim] hidden
// states distilled with MSE; when cfg.Classes > 0 the final block adds a
// mean-pool + linear classifier head and distills its logits with
// KL-with-temperature.
func NewTransformerWorkbench(cfg TransformerConfig) *Workbench {
	if cfg.Blocks <= 0 || cfg.Dim <= 0 || cfg.SeqLen <= 0 || cfg.Vocab <= 0 {
		panic(fmt.Sprintf("distill: invalid transformer config %+v", cfg))
	}
	if cfg.Heads <= 0 || cfg.Dim%cfg.Heads != 0 {
		panic(fmt.Sprintf("distill: transformer heads %d must divide dim %d", cfg.Heads, cfg.Dim))
	}
	temp := cfg.Temp
	if temp <= 0 {
		temp = 1
	}
	build := func() []Pair {
		rng := rand.New(rand.NewSource(cfg.Seed))
		pairs := make([]Pair, cfg.Blocks)
		for b := 0; b < cfg.Blocks; b++ {
			var teacher, student *nn.Sequential
			if b == 0 {
				// Both sides embed with their own tables; the block
				// boundary (and so the distillation target) is the hidden
				// state after the first encoder layer.
				teacher = nn.NewSequential(nn.NewEmbedding(rng, cfg.Vocab, cfg.SeqLen, cfg.Dim))
				student = nn.NewSequential(nn.NewEmbedding(rng, cfg.Vocab, cfg.SeqLen, cfg.Dim))
			} else {
				teacher = nn.NewSequential()
				student = nn.NewSequential()
			}
			teacher.Layers = append(teacher.Layers, encoderLayer(rng, cfg.Dim, cfg.Heads, cfg.TeacherFF)...)
			student.Layers = append(student.Layers, encoderLayer(rng, cfg.Dim, cfg.Heads, cfg.StudentFF)...)
			var loss LossFunc
			if cfg.Classes > 0 && b == cfg.Blocks-1 {
				teacher.Layers = append(teacher.Layers, nn.NewMeanPoolSeq(), nn.NewLinear(rng, cfg.Dim, cfg.Classes, true))
				student.Layers = append(student.Layers, nn.NewMeanPoolSeq(), nn.NewLinear(rng, cfg.Dim, cfg.Classes, true))
				loss = KLLoss(temp)
			}
			pairs[b] = newPair(teacher, student, loss)
		}
		return pairs
	}
	return NewWorkbench(build)
}
