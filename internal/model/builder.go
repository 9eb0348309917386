// Package model is the model zoo: cost-model descriptions of the four
// architectures the paper evaluates (MobileNetV2 and ProxylessNAS for the
// NAS workload; VGG-16 and its DS-Conv student for model compression),
// split into distillation blocks the same way the paper's workloads are.
//
// The architectures are described by exact layer shapes, from which the
// cost package derives parameters, MACs, activation sizes, and execution
// times. Unit tests check the derived parameter and MAC counts against
// the values reported in Table II of the paper wherever the architecture
// is fully determined.
package model

import (
	"fmt"

	"pipebd/internal/cost"
)

// Model bundles a network's coarse block split (used by teacher relaying
// and the DP baseline) with its fine layerwise split into units (used by
// the LS baseline's bin packing). Unit boundaries are a strict refinement
// of block boundaries.
type Model struct {
	Net   cost.Network
	Units []cost.Block
}

// builder accumulates layers while tracking the current tensor geometry,
// and cuts blocks at distillation boundaries and units at layerwise
// boundaries.
type builder struct {
	c, h, w       int
	scale         float64 // ComputeScale/StoreScale applied to appended layers
	pendingBranch bool    // next appended layer starts a parallel branch

	layers []cost.Layer
	blocks []cost.Block

	unitLayers []cost.Layer
	units      []cost.Block
}

func newBuilder(c, h, w int) *builder {
	return &builder{c: c, h: h, w: w, scale: 1}
}

func (b *builder) add(l cost.Layer) {
	l.ComputeScale = b.scale
	l.StoreScale = b.scale
	if b.pendingBranch {
		l.BranchStart = true
		b.pendingBranch = false
	}
	b.layers = append(b.layers, l)
	b.unitLayers = append(b.unitLayers, l)
}

// endUnit closes the current layerwise unit under the given name.
func (b *builder) endUnit(name string) {
	if len(b.unitLayers) == 0 {
		panic(fmt.Sprintf("model: ending empty unit %q", name))
	}
	b.units = append(b.units, cost.Block{Name: name, Layers: b.unitLayers})
	b.unitLayers = nil
}

// parallel emits n alternative branches that all consume the current
// activation (a NAS supernet's candidate operations). When sampled is
// true, one branch is sampled per training step (path-sampling NAS), so
// each branch's layers carry ComputeScale and StoreScale divided by n —
// the expected per-step cost — while parameters remain fully counted.
// When sampled is false, every branch executes every step (weighted-sum
// differentiable NAS, the formulation the paper describes: architecture
// parameters give each candidate's selection probability and all
// candidates contribute to the block output). All branches must end with
// identical geometry.
func (b *builder) parallel(n int, sampled bool, branch func(i int)) {
	if n <= 0 {
		panic("model: parallel requires n > 0")
	}
	inC, inH, inW := b.c, b.h, b.w
	outerScale := b.scale
	if sampled {
		b.scale = outerScale / float64(n)
	}
	var outC, outH, outW int
	for i := 0; i < n; i++ {
		b.c, b.h, b.w = inC, inH, inW
		b.pendingBranch = true
		branch(i)
		if i == 0 {
			outC, outH, outW = b.c, b.h, b.w
		} else if b.c != outC || b.h != outH || b.w != outW {
			panic(fmt.Sprintf("model: parallel branch %d ends at [%d,%d,%d], others at [%d,%d,%d]",
				i, b.c, b.h, b.w, outC, outH, outW))
		}
	}
	b.pendingBranch = false
	b.scale = outerScale
	b.c, b.h, b.w = outC, outH, outW
}

// conv appends a standard convolution and advances the geometry.
func (b *builder) conv(name string, outC, k, stride, pad int, bias bool) {
	l := cost.Layer{Name: name, Kind: cost.Conv, InC: b.c, OutC: outC,
		InH: b.h, InW: b.w, Kernel: k, Stride: stride, Pad: pad, Bias: bias}
	b.add(l)
	b.c, b.h, b.w = outC, l.OutH(), l.OutW()
}

// dwconv appends a depthwise convolution.
func (b *builder) dwconv(name string, k, stride, pad int) {
	l := cost.Layer{Name: name, Kind: cost.DWConv, InC: b.c, OutC: b.c,
		InH: b.h, InW: b.w, Kernel: k, Stride: stride, Pad: pad}
	b.add(l)
	b.h, b.w = l.OutH(), l.OutW()
}

// bn appends a batch normalization over the current channels.
func (b *builder) bn(name string) {
	b.add(cost.Layer{Name: name, Kind: cost.BatchNorm, InC: b.c, OutC: b.c, InH: b.h, InW: b.w})
}

// act appends an elementwise activation.
func (b *builder) act(name string) {
	b.add(cost.Layer{Name: name, Kind: cost.Act, InC: b.c, OutC: b.c, InH: b.h, InW: b.w})
}

// pool appends a non-overlapping pooling layer.
func (b *builder) pool(name string, k int) {
	l := cost.Layer{Name: name, Kind: cost.Pool, InC: b.c, OutC: b.c, InH: b.h, InW: b.w, Kernel: k}
	b.add(l)
	b.h, b.w = l.OutH(), l.OutW()
}

// gap appends global average pooling.
func (b *builder) gap(name string) {
	b.add(cost.Layer{Name: name, Kind: cost.GlobalPool, InC: b.c, OutC: b.c, InH: b.h, InW: b.w})
	b.h, b.w = 1, 1
}

// flatten folds spatial dimensions into channels.
func (b *builder) flatten(name string) {
	l := cost.Layer{Name: name, Kind: cost.Flatten, InC: b.c, OutC: b.c * b.h * b.w, InH: b.h, InW: b.w}
	b.add(l)
	b.c, b.h, b.w = l.NextC(), 1, 1
}

// linear appends a fully connected layer.
func (b *builder) linear(name string, outC int) {
	b.add(cost.Layer{Name: name, Kind: cost.Linear, InC: b.c, OutC: outC, InH: 1, InW: 1, Bias: true})
	b.c = outC
}

// embed appends a token + positional embedding lookup: [N, L] ids in,
// [N, L, dim] hidden states out. Sequence geometry rides the spatial
// fields (h = sequence length, w = 1).
func (b *builder) embed(name string, vocab, dim int) {
	b.add(cost.Layer{Name: name, Kind: cost.Embed, InC: 1, OutC: dim,
		InH: b.h, InW: 1, Kernel: vocab})
	b.c = dim
}

// attn appends multi-head self-attention over the current sequence.
func (b *builder) attn(name string, heads int) {
	b.add(cost.Layer{Name: name, Kind: cost.Attn, InC: b.c, OutC: b.c,
		InH: b.h, InW: b.w, Kernel: heads, Bias: true})
}

// lnorm appends a layer normalization over the current channels.
func (b *builder) lnorm(name string) {
	b.add(cost.Layer{Name: name, Kind: cost.LayerNorm, InC: b.c, OutC: b.c, InH: b.h, InW: b.w})
}

// plinear appends a position-wise linear layer: the same weights applied
// at every sequence position (the transformer MLP). Unlike linear it
// keeps the current spatial/sequence geometry.
func (b *builder) plinear(name string, outC int) {
	b.add(cost.Layer{Name: name, Kind: cost.Linear, InC: b.c, OutC: outC,
		InH: b.h, InW: b.w, Bias: true})
	b.c = outC
}

// residualAdd appends the elementwise addition closing a residual branch.
func (b *builder) residualAdd(name string) {
	b.add(cost.Layer{Name: name, Kind: cost.Add, InC: b.c, OutC: b.c, InH: b.h, InW: b.w})
}

// cut closes the current block under the given name. Every block boundary
// must also be a unit boundary (blocks are composed of whole units).
func (b *builder) cut(name string) {
	if len(b.layers) == 0 {
		panic(fmt.Sprintf("model: cutting empty block %q", name))
	}
	if len(b.unitLayers) != 0 {
		panic(fmt.Sprintf("model: block %q cut inside an open unit", name))
	}
	b.blocks = append(b.blocks, cost.Block{Name: name, Layers: b.layers})
	b.layers = nil
}

// model finalizes the builder into a validated Model.
func (b *builder) model(name string) Model {
	if len(b.layers) != 0 || len(b.unitLayers) != 0 {
		panic(fmt.Sprintf("model: network %q has uncut trailing layers", name))
	}
	n := cost.Network{Name: name, Blocks: b.blocks}
	if err := n.Validate(); err != nil {
		panic(err)
	}
	for _, u := range b.units {
		if err := u.Validate(); err != nil {
			panic(err)
		}
	}
	return Model{Net: n, Units: b.units}
}
