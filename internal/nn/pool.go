package nn

import (
	"fmt"

	"pipebd/internal/tensor"
)

// MaxPool2d is a max pooling layer with square kernel and stride equal to
// the kernel size (the common non-overlapping configuration).
type MaxPool2d struct {
	Kernel int

	stepMem
	argmax  []int // flat input index of each output element
	inShape []int
}

// NewMaxPool2d returns a non-overlapping max pool of the given kernel.
func NewMaxPool2d(kernel int) *MaxPool2d { return &MaxPool2d{Kernel: kernel} }

// Forward pools an NCHW input; H and W must be divisible by Kernel.
func (m *MaxPool2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if len(shape) != 4 {
		panic(fmt.Sprintf("nn: MaxPool2d expects NCHW, got %v", shape))
	}
	n, c, h, w := shape[0], shape[1], shape[2], shape[3]
	k := m.Kernel
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("nn: MaxPool2d input %dx%d not divisible by kernel %d", h, w, k))
	}
	oh, ow := h/k, w/k
	out := m.ar.Get(n, c, oh, ow)
	xd, od := x.Data(), out.Data()
	var argmax []int
	if train {
		argmax = make([]int, out.Numel())
	}
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			inBase := (ni*c + ci) * h * w
			outBase := (ni*c + ci) * oh * ow
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					bestIdx := inBase + (oi*k)*w + oj*k
					best := xd[bestIdx]
					for ki := 0; ki < k; ki++ {
						row := inBase + (oi*k+ki)*w + oj*k
						for kj := 0; kj < k; kj++ {
							if v := xd[row+kj]; v > best {
								best, bestIdx = v, row+kj
							}
						}
					}
					outIdx := outBase + oi*ow + oj
					od[outIdx] = best
					if train {
						argmax[outIdx] = bestIdx
					}
				}
			}
		}
	}
	if train {
		m.argmax, m.inShape = argmax, shape
		m.cached()
	}
	return out
}

// Backward routes each output gradient to its argmax input position.
func (m *MaxPool2d) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if m.argmax == nil {
		panic("nn: MaxPool2d.Backward called before Forward(train=true)")
	}
	m.checkCache("MaxPool2d")
	out := m.ar.GetZeroed(m.inShape...)
	od, gd := out.Data(), grad.Data()
	for i, src := range m.argmax {
		od[src] += gd[i]
	}
	return out
}

// Params returns nil; pooling has no trainable parameters.
func (m *MaxPool2d) Params() []*Param { return nil }

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
	_ Layer = (*MaxPool2d)(nil)
	_ Layer = (*GlobalAvgPool2d)(nil)
	_ Layer = (*Flatten)(nil)
)
