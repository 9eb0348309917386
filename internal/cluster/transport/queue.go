package transport

import (
	"io"
	"sync"

	"pipebd/internal/cluster/wire"
)

// FrameQueue is an unbounded FIFO of frames with close semantics: Pop
// drains remaining frames after Close and then reports io.EOF. Unbounded
// on purpose — the cluster session layer guarantees progress by never
// blocking a sender, and bounds memory via the pipeline's flow-control
// window rather than the queue: under DPU an activation sender runs at
// most its ack window of two steps ahead of its consumers, and without DPU
// the step barrier holds every sender within one step, so the pooled
// frames queued on a link are at most a few steps' worth. Safe for
// concurrent use.
type FrameQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames []*wire.Frame // frames[head:] are queued
	head   int
	closed bool
}

// NewFrameQueue returns an empty queue.
func NewFrameQueue() *FrameQueue {
	q := &FrameQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends a frame; it fails with io.ErrClosedPipe after Close.
func (q *FrameQueue) Push(f *wire.Frame) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return io.ErrClosedPipe
	}
	if q.head > 0 && len(q.frames) == cap(q.frames) {
		// Full at the back, free at the front: move the queue down the
		// array instead of growing it.
		n := copy(q.frames, q.frames[q.head:])
		clear(q.frames[n:])
		q.frames, q.head = q.frames[:n], 0
	}
	q.frames = append(q.frames, f)
	q.cond.Signal()
	return nil
}

// Pop blocks for the next frame; after Close it drains the backlog and
// then returns io.EOF.
func (q *FrameQueue) Pop() (*wire.Frame, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.frames) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.frames) {
		return nil, io.EOF
	}
	f := q.frames[q.head]
	q.frames[q.head] = nil
	q.head++
	if q.head == len(q.frames) {
		// Drained: the next Push starts at the front of the same array.
		q.frames, q.head = q.frames[:0], 0
	}
	return f, nil
}

// Close marks the queue finished; concurrent and future Pops drain and
// then return io.EOF. Idempotent.
func (q *FrameQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
