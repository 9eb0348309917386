package nn

import (
	"fmt"

	"pipebd/internal/tensor"
)

// GlobalAvgPool2d averages each channel's spatial plane to [N, C, 1, 1].
type GlobalAvgPool2d struct {
	stepMem
	inShape []int
}

// NewGlobalAvgPool2d returns a global average pooling layer.
func NewGlobalAvgPool2d() *GlobalAvgPool2d { return &GlobalAvgPool2d{} }

// Forward averages over H×W per channel.
func (g *GlobalAvgPool2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool2d expects NCHW, got %v", shape))
	}
	n, c, h, w := shape[0], shape[1], shape[2], shape[3]
	spatial := h * w
	out := g.ar.Get(n, c, 1, 1)
	xd, od := x.Data(), out.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * spatial
			var s float64
			for i := 0; i < spatial; i++ {
				s += float64(xd[base+i])
			}
			od[ni*c+ci] = float32(s / float64(spatial))
		}
	}
	if train {
		g.inShape = shape
		g.cached()
	}
	return out
}

// Backward spreads each channel gradient uniformly over its plane.
func (g *GlobalAvgPool2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if g.inShape == nil {
		panic("nn: GlobalAvgPool2d.Backward called before Forward(train=true)")
	}
	g.checkCache("GlobalAvgPool2d")
	n, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	spatial := h * w
	out := g.ar.Get(g.inShape...)
	od, gd := out.Data(), grad.Data()
	inv := 1 / float32(spatial)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			v := gd[ni*c+ci] * inv
			base := (ni*c + ci) * spatial
			for i := 0; i < spatial; i++ {
				od[base+i] = v
			}
		}
	}
	return out
}

// Params returns nil; pooling has no trainable parameters.
func (g *GlobalAvgPool2d) Params() []*Param { return nil }

// Flatten reshapes NCHW to [N, C*H*W].
type Flatten struct {
	stepMem
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all non-batch dimensions.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	n := shape[0]
	rest := x.Numel() / n
	if train {
		f.inShape = shape
		f.cached()
	}
	out := f.ar.Get(n, rest)
	out.CopyFrom(x)
	return out
}

// Backward restores the original shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten.Backward called before Forward(train=true)")
	}
	f.checkCache("Flatten")
	out := f.ar.Get(f.inShape...)
	out.CopyFrom(grad)
	return out
}

// Params returns nil; Flatten has no trainable parameters.
func (f *Flatten) Params() []*Param { return nil }

var (
	_ Layer = (*GlobalAvgPool2d)(nil)
	_ Layer = (*Flatten)(nil)
)
