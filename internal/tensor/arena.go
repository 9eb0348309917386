package tensor

import (
	"math"
	"sync"
	"sync/atomic"
)

// Arena recycles tensors of recurring shapes. Blockwise distillation
// re-runs the same shapes every step and nothing a device computes in one
// step (layer outputs, backward caches, gradients, GEMM temporaries) is
// read in the next, so a device loop draws all of it from arenas it
// resets as it goes: after the first step, a step allocates nothing.
// There is one lifetime rule: a tensor lives until the next Reset of its
// arena, after which Get may hand its backing array to the next request
// of equal element count (the generation tells holders of older tensors).
// An arena never frees: it holds a buffer for every tensor of every shape
// it served between two Resets.
//
// A nil *Arena is valid and means plain allocation: Get and GetZeroed are
// New, Reset does nothing, Generation stays 0, so code written against an
// arena has one path whether or not one is attached. An Arena is not safe
// for concurrent use; each device goroutine owns its own.
type Arena struct {
	classes map[int]*sizeClass // keyed by element count
	gen     uint64
	lent    atomic.Bool // by an ArenaCache
}

// sizeClass holds every tensor of one element count the arena ever made:
// in arena generation gen bufs[:used] are handed out, later all are free.
// bufs[:dirty] may have been written since the last Poison.
type sizeClass struct {
	bufs  []*Tensor
	used  int
	gen   uint64
	dirty int
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
	if c.gen != a.gen {
		c.gen, c.used = a.gen, 0
	}
	if c.used == len(c.bufs) {
		c.bufs = append(c.bufs, New(shape...))
	}
	t := c.bufs[c.used]
	c.used++
	c.dirty = max(c.dirty, c.used)
	t.shape = append(t.shape[:0], shape...)
	return t
}

// GetZeroed is Get with the buffer cleared.
func (a *Arena) GetZeroed(shape ...int) *Tensor {
	t := a.Get(shape...)
	t.Zero()
	return t
}

// Reset frees every tensor handed out since the previous Reset and
// advances the generation.
func (a *Arena) Reset() {
	if a != nil {
		a.gen++
	}
}

// Generation counts the Resets so far.
func (a *Arena) Generation() uint64 {
	if a == nil {
		return 0
	}
	return a.gen
}

// Poison fills every free buffer with NaN, so that a kernel reading a
// recycled buffer before writing it shows in the results. For tests. A
// buffer not handed out since the last Poison is NaN from it already, so
// only the others are filled: a poisoned step costs what the step used,
// not everything the arena holds.
func (a *Arena) Poison() {
	nan := float32(math.NaN())
	for _, c := range a.classes {
		free := 0
		if c.gen == a.gen {
			free = c.used
		}
		for _, t := range c.bufs[free:max(free, c.dirty)] {
			t.Fill(nan)
		}
		c.dirty = free
	}
}

// arenaCacheCap arenas are kept by an ArenaCache; more are garbage.
const arenaCacheCap = 32

// ArenaCache lends arenas to borrowers that come and go — a kernel call, a
// training run — so that the next one finds the buffers of the last. The
// first arenaCacheCap arenas it makes stay strongly referenced for the
// life of the process: no garbage collection frees a buffer (two empty a
// bare sync.Pool, and the next borrower re-allocates megabytes); what
// more borrowers at one moment make is garbage once handed back. So a
// process retains at most the cap times the union of its borrowers'
// shapes: a caching device allocator's trade. Safe for concurrent use.
type ArenaCache struct {
	mu    sync.Mutex
	kept  []*Arena
	front sync.Pool // between putLocal and getLocal only; collections empty it
}

// Get lends an arena, reset, until Put: the first free one in the order
// made, so borrowers asking in a fixed order meet the arenas they sized.
func (c *ArenaCache) Get() *Arena {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.kept {
		if a.lent.CompareAndSwap(false, true) {
			return a
		}
	}
	a := NewArena()
	a.lent.Store(true)
	if len(c.kept) < arenaCacheCap {
		c.kept = append(c.kept, a)
	}
	return a
}

// Put resets a and ends the loan: no tensor from a may be used afterwards.
func (c *ArenaCache) Put(a *Arena) {
	a.Reset()
	a.lent.Store(false)
}

// getLocal and putLocal are Get and Put for this package's kernels, which
// borrow per call: a goroutine meets the arena its core last put back,
// without taking mu (behind a bare lock arenas ping-pong between cores:
// +1-9% conv wall). front may hold an arena Get has lent since, or one
// beyond the cap: lent decides.
func (c *ArenaCache) getLocal() *Arena {
	if a, _ := c.front.Get().(*Arena); a != nil && a.lent.CompareAndSwap(false, true) {
		return a
	}
	return c.Get()
}

func (c *ArenaCache) putLocal(a *Arena) {
	c.Put(a)
	c.front.Put(a)
}
