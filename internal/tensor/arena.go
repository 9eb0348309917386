package tensor

import (
	"math"
	"slices"
)

// Arena recycles tensors of recurring shapes. Blockwise distillation
// re-runs the same shapes every step and nothing a device computes in one
// step (layer outputs, backward caches, gradients, GEMM temporaries) is
// read in the next, so a device loop draws all of it from arenas it
// resets as it goes: after the first step, a step allocates nothing.
// Reset also advances the generation, by which holders
// of older tensors can tell that their memory was recycled. The GEMM pack
// buffers instead pair each Get with a Release and never reset.
//
// A nil *Arena is valid and means plain allocation: Get and GetZeroed are
// New, Release and Reset do nothing, Generation stays 0. Code written
// against an arena therefore has one path whether or not one is attached,
// and tensors obtained through a nil arena live until garbage-collected.
//
// An Arena is not safe for concurrent use; each device goroutine owns its
// own. A tensor must not be used once it was released or reset away: Get
// may hand the same backing array to the next request of equal element
// count.
type Arena struct {
	classes map[int]*sizeClass // keyed by element count
	gen     uint64
}

// sizeClass holds every tensor of one element count the arena ever made:
// bufs[:used] are handed out, bufs[used:] are free.
type sizeClass struct {
	bufs []*Tensor
	used int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{classes: map[int]*sizeClass{}} }

// Get returns a tensor of the given shape, reusing a free buffer of equal
// element count when one is available. The contents are unspecified; use
// GetZeroed when the kernel does not overwrite the whole buffer.
func (a *Arena) Get(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	n := checkShape(shape)
	c := a.classes[n]
	if c == nil {
		c = &sizeClass{}
		a.classes[n] = c
	}
	if c.used == len(c.bufs) {
		c.bufs = append(c.bufs, New(shape...))
	}
	t := c.bufs[c.used]
	c.used++
	t.shape = append(t.shape[:0], shape...)
	return t
}

// GetZeroed is Get with the buffer cleared.
func (a *Arena) GetZeroed(shape ...int) *Tensor {
	t := a.Get(shape...)
	t.Zero()
	return t
}

// Release frees tensors ahead of the next Reset; nil entries are ignored.
// A tensor not handed out since the last Reset (released twice, foreign)
// panics.
func (a *Arena) Release(ts ...*Tensor) {
	if a == nil {
		return
	}
	for _, t := range ts {
		if t == nil {
			continue
		}
		c, i := a.classes[len(t.data)], -1
		if c != nil {
			i = slices.Index(c.bufs[:c.used], t)
		}
		if i < 0 {
			panic("tensor: Arena.Release of a tensor the arena has not handed out (double release?)")
		}
		c.used--
		c.bufs[i], c.bufs[c.used] = c.bufs[c.used], t
	}
}

// Reset frees every tensor handed out since the previous Reset and
// advances the generation.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for _, c := range a.classes {
		c.used = 0
	}
	a.gen++
}

// Generation counts the Resets so far.
func (a *Arena) Generation() uint64 {
	if a == nil {
		return 0
	}
	return a.gen
}

// Poison fills every free buffer with NaN, so that a kernel reading a
// recycled buffer before writing it shows in the results. For tests.
func (a *Arena) Poison() {
	nan := float32(math.NaN())
	for _, c := range a.classes {
		for _, t := range c.bufs[c.used:] {
			t.Fill(nan)
		}
	}
}
