package wire

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"

	"pipebd/internal/tensor"
)

// Pooled frames. A frame the cluster's hot path reads or encodes borrows
// its payload from a process-wide cache of buffers instead of the heap,
// and gives it back when the last holder calls Release. The holders are
// counted: Send takes the sender's reference (transport.Conn), a frame
// enqueued to several outboxes holds one reference per outbox (Retain),
// and whoever consumes a received frame releases it once it has read
// what it needs. A frame nobody releases is garbage, as an unpooled frame
// always is: a missed release costs an allocation, never a wrong bit.
//
// ReadFrame, EncodeLosses, EncodeRingSegment, EncodeLinkAck and the
// Pooled… encoders make pooled frames. Every other encoder — EncodeTensor,
// EncodeDeviceSnapshot and Control among them, whose frames a caller may
// send again and again — makes a plain frame, to which Retain and Release
// do nothing.
//
// How many pooled frames are alive at once is the protocol's to bound,
// not the cache's: under DPU an activation sender runs at most ackWindow
// steps ahead of its consumers, without it the step barrier holds every
// sender within a step, and a resumable link holds what its peer has not
// acknowledged. So a warm step finds every buffer it needs in the cache.

// headroom is the room a pooled payload leaves in front of itself, which
// holds the relay envelope's prefix (inner kind, inner device): a peer
// frame crosses a relayed edge as a reslice of its own buffer.
const headroom = relayHeader

// Size classes: class c holds payloads of up to minClass<<c bytes, the
// largest readChunk, which bounds what ReadFrame reads into a pooled
// buffer. A bigger payload is a plain allocation.
const (
	minClassShift = 6 // 64 bytes
	numClasses    = 21 - minClassShift
	viewClass     = numClasses // a view's entry in the cache: no buffer of its own
	// keepBytes is what the cache retains of one class at most; a class
	// keeps at least minKeep buffers.
	keepBytes = 16 << 20
	minKeep   = 16
)

// pooled is the recycled part of a pooled frame: the frame itself (so a
// warm frame costs no allocation at all), its holder count and its
// buffer. A view has no buffer: its payload reslices parent's, whose
// reference it holds until its own is released.
type pooled struct {
	frame  Frame
	refs   atomic.Int32
	class  int
	mem    []byte // headroom, then the payload's capacity; nil for a view
	parent *Frame
}

// frameCache is the process-wide cache of pooled frames. Like
// tensor.ArenaCache it holds what it keeps strongly, so no garbage
// collection empties it (a bare sync.Pool loses its contents to two) and
// the next warm step re-allocates nothing.
type frameCache struct {
	mu   sync.Mutex
	free [numClasses + 1][]*pooled
}

var cache frameCache

// poisonReleased fills a recycled buffer with poisonByte and a recycled
// frame's header with unroutable values before the cache hands either out
// again, so a payload read after its last Release decodes garbage rather
// than the bytes a stale holder hoped for. It is on in test binaries only.
var poisonReleased = testing.Testing()

const poisonByte = 0xDB

// classOf returns the size class of an n-byte payload, or -1 when n is
// too big to pool.
func classOf(n int) int {
	if n > readChunk {
		return -1
	}
	if n <= 1<<minClassShift {
		return 0
	}
	return bits.Len(uint(n-1)) - minClassShift
}

// keep is how many free entries of a class the cache retains.
func keep(class int) int {
	if class == viewClass {
		return 1 << 12
	}
	return max(minKeep, keepBytes>>(minClassShift+class))
}

func (c *frameCache) get(class int) *pooled {
	c.mu.Lock()
	if free := c.free[class]; len(free) > 0 {
		p := free[len(free)-1]
		free[len(free)-1] = nil
		c.free[class] = free[:len(free)-1]
		c.mu.Unlock()
		return p
	}
	c.mu.Unlock()
	p := &pooled{class: class}
	if class != viewClass {
		p.mem = make([]byte, headroom+1<<(minClassShift+class))
	}
	p.frame.pool = p
	return p
}

func (c *frameCache) put(p *pooled) {
	c.mu.Lock()
	if len(c.free[p.class]) < keep(p.class) {
		c.free[p.class] = append(c.free[p.class], p)
	}
	c.mu.Unlock()
}

// newPooled returns a frame with one holder, the caller, whose payload
// has room for n bytes and length 0: the encoder appends exactly n. Its
// headroom holds the relay prefix of (kind, dev). A payload too big to
// pool gets a plain, unpooled frame.
func newPooled(kind Kind, dev, step int32, n int) *Frame {
	class := classOf(n)
	if class < 0 {
		return &Frame{Kind: kind, Dev: dev, Step: step, Payload: make([]byte, 0, n)}
	}
	return cache.get(class).init(kind, dev, step)
}

// init makes p's frame a fresh one of (kind, dev, step) with one holder
// and an empty payload behind its headroom, which holds the relay prefix.
func (p *pooled) init(kind Kind, dev, step int32) *Frame {
	p.refs.Store(1)
	p.mem[0] = uint8(kind)
	binary.LittleEndian.PutUint32(p.mem[1:headroom], uint32(dev))
	p.frame = Frame{Kind: kind, Dev: dev, Step: step, Payload: p.mem[headroom:headroom:len(p.mem)], pool: p}
	return &p.frame
}

// Retain adds a holder to a pooled frame: each holder releases once.
func (f *Frame) Retain() {
	if f.pool != nil {
		f.pool.refs.Add(1)
	}
}

// Release drops the caller's reference. The last one returns the frame
// and its buffer to the cache, so neither may be touched afterwards. A
// frame released more often than it was held panics: its buffer may
// already back another frame.
func (f *Frame) Release() {
	p := f.pool
	if p == nil {
		return
	}
	switch n := p.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("wire: frame released more often than it was held")
	}
	parent := p.parent
	p.parent = nil
	if poisonReleased {
		for i := range p.mem {
			p.mem[i] = poisonByte
		}
		p.frame = Frame{Kind: 0, Dev: -poisonByte, Step: -poisonByte, Payload: p.mem, pool: p}
	}
	cache.put(p)
	if parent != nil {
		parent.Release()
	}
}

// reshape turns the caller's reference to the pooled frame f into a frame
// of the given kind, device and payload, which must lie inside f's
// buffer: f itself, rewritten, when the caller is its only holder (no
// other can appear, as only a holder can Retain); otherwise a view
// holding the caller's reference to f.
func reshape(f *Frame, kind Kind, dev int32, payload []byte) *Frame {
	if f.pool.refs.Load() == 1 {
		f.Kind, f.Dev, f.Payload = kind, dev, payload
		return f
	}
	v := cache.get(viewClass)
	v.refs.Store(1)
	v.parent = f
	v.frame = Frame{Kind: kind, Dev: dev, Step: f.Step, Payload: payload, pool: v}
	return &v.frame
}

// PooledControl is Control in a pooled frame.
func PooledControl(kind Kind, dev, step int32) *Frame { return newPooled(kind, dev, step, 0) }

// PooledTensor is EncodeTensor into a pooled buffer.
func PooledTensor(kind Kind, dev, step int32, t *tensor.Tensor) *Frame {
	f := newPooled(kind, dev, step, tensorBytes(t))
	w := Writer{buf: f.Payload}
	w.Tensor(t)
	f.Payload = w.buf
	return f
}

// PooledDeviceSnapshot is EncodeDeviceSnapshot into a pooled buffer.
func PooledDeviceSnapshot(dev, step int32, values, velocity []*tensor.Tensor) *Frame {
	f := newPooled(KindSnapshot, dev, step, tensorsBytes(values)+tensorsBytes(velocity))
	w := Writer{buf: f.Payload}
	w.State(values, velocity)
	f.Payload = w.buf
	return f
}

// tensorBytes is the encoded size of a tensor: rank, dims, data.
func tensorBytes(t *tensor.Tensor) int { return 4 + 4*len(t.Shape()) + 4*t.Numel() }

// tensorsBytes is the encoded size of a counted tensor list.
func tensorsBytes(ts []*tensor.Tensor) int {
	n := 4
	for _, t := range ts {
		n += tensorBytes(t)
	}
	return n
}
