package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/nn"
	"pipebd/internal/obs"
	"pipebd/internal/tensor"
)

// The traced passes time the program from the outside, at the seams it
// already exposes: a tensor.Backend wrapper, an nn.Layer wrapper and a
// transport.Network wrapper, all defined here. Nothing under internal/
// is instrumented for the benchmark; phases no seam exposes are read
// from the obs spans the program already emits (recorder.addObs).

// span is one timed region: which layer and operation, on which track,
// within which pass, caused by which other span of the same track.
type span struct {
	layer  string // module name: tensor, nn, transport, engine, cluster
	name   string
	pass   int
	parent int32 // index into the same track's spans; -1 for a root
	start  int64 // nanoseconds since the recorder's base
	end    int64
	// rows is the kernel's m (tensor spans) or the input's batch rows (nn
	// spans); flops the kernel's floating-point operations.
	rows  int
	flops float64
}

// track is one timeline of spans: a device, a connection direction, the
// coordinator. Any goroutine may record on it.
type track struct {
	name  string
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func (t *track) begin(s span) int32 {
	s.start = int64(time.Since(t.base))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

func (t *track) end(id int32) {
	end := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// recorder keeps every traced pass's spans in memory until the benchmark
// ends.
type recorder struct {
	base   time.Time
	mu     sync.Mutex
	tracks []*track
	byName map[string]*track
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), byName: map[string]*track{}}
}

// track returns the named track, creating it on first use.
func (r *recorder) track(name string) *track {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byName[name]
	if !ok {
		t = &track{name: name, base: r.base}
		r.byName[name] = t
		r.tracks = append(r.tracks, t)
	}
	return t
}

// addObs files spans the program itself emitted (engine.Config.Trace,
// cluster.Config.TraceSink) under the given layer. Their clock is the
// Unix epoch; they are rebased onto the recorder's.
func (r *recorder) addObs(layer, trackName string, pass int, spans []obs.Span) {
	t := r.track(trackName)
	base := r.base.UnixNano()
	t.mu.Lock()
	for _, s := range spans {
		t.spans = append(t.spans, span{layer: layer, name: s.Name, pass: pass,
			parent: -1, start: s.Start - base, end: s.Start - base + s.Dur})
	}
	t.mu.Unlock()
}

// total sums, over every track, the duration, self time (duration minus
// the children's), count and flops of the spans that match.
type spanTotal struct {
	durNs, selfNs float64
	count         int
	rows          int
	flops         float64
}

func (r *recorder) total(match func(trackName string, s *span) bool) spanTotal {
	var tot spanTotal
	r.mu.Lock()
	tracks := append([]*track(nil), r.tracks...)
	r.mu.Unlock()
	for _, t := range tracks {
		t.mu.Lock()
		child := make([]int64, len(t.spans))
		for i := range t.spans {
			if p := t.spans[i].parent; p >= 0 {
				child[p] += t.spans[i].end - t.spans[i].start
			}
		}
		for i := range t.spans {
			s := &t.spans[i]
			if !match(t.name, s) {
				continue
			}
			d := s.end - s.start
			tot.durNs += float64(d)
			tot.selfNs += float64(d - child[i])
			tot.count++
			tot.rows += s.rows
			tot.flops += s.flops
		}
		t.mu.Unlock()
	}
	return tot
}

// writeChromeTrace writes every traced workload's spans as one Chrome
// trace-event file (chrome://tracing, ui.perfetto.dev): one process per
// workload, one thread per track, one complete event per span, with the
// pass id and the parent span's id in args.
func writeChromeTrace(path string, hs []*harness) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	type meta struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := []any{}
	for pid, h := range hs {
		events = append(events, meta{Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": h.w.name}})
		h.rec.mu.Lock()
		tracks := append([]*track(nil), h.rec.tracks...)
		h.rec.mu.Unlock()
		for tid, t := range tracks {
			events = append(events, meta{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": t.name}})
			t.mu.Lock()
			for i, s := range t.spans {
				events = append(events, event{Name: s.name, Cat: s.layer, Ph: "X",
					TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: pid, TID: tid,
					Args: map[string]any{"pass": s.pass, "id": i, "parent": s.parent}})
			}
			t.mu.Unlock()
		}
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// --- tensor.Backend seam ------------------------------------------------------

// Kernel classes, the span names of the tensor layer.
const (
	kGemm      = "gemm"
	kBatchGemm = "batch_gemm"
	kConvGemm  = "conv_gemm"
	kIm2col    = "im2col"
	kEltwise   = "eltwise"
)

// timedBackend delegates every kernel to inner untouched, like
// tensor.Throttled, and records a span around the call. parent, when
// set, points at the owning layer wrapper's open span.
type timedBackend struct {
	inner  tensor.Backend
	tk     *track
	pass   int
	parent *int32
}

func (b *timedBackend) Name() string { return b.inner.Name() }

func (b *timedBackend) begin(class string, m int, flops float64) int32 {
	parent := int32(-1)
	if b.parent != nil {
		parent = *b.parent
	}
	return b.tk.begin(span{layer: "tensor", name: class, pass: b.pass, parent: parent, rows: m, flops: flops})
}

// gemmFlops is 2·m·k·n for out[m,n] with inner dimension k.
func gemmFlops(out *tensor.Tensor, k int) float64 { return 2 * float64(out.Numel()) * float64(k) }

func (b *timedBackend) MatMulInto(out, a, c *tensor.Tensor) {
	id := b.begin(kGemm, a.Dim(0), gemmFlops(out, a.Dim(1)))
	b.inner.MatMulInto(out, a, c)
	b.tk.end(id)
}

func (b *timedBackend) MatMulTAInto(out, a, c *tensor.Tensor) {
	id := b.begin(kGemm, a.Dim(1), gemmFlops(out, a.Dim(0)))
	b.inner.MatMulTAInto(out, a, c)
	b.tk.end(id)
}

func (b *timedBackend) MatMulTBInto(out, a, c *tensor.Tensor) {
	id := b.begin(kGemm, a.Dim(0), gemmFlops(out, a.Dim(1)))
	b.inner.MatMulTBInto(out, a, c)
	b.tk.end(id)
}

func (b *timedBackend) MatMulBatchInto(out, a, c *tensor.Tensor) {
	id := b.begin(kBatchGemm, a.Dim(1), gemmFlops(out, a.Dim(2)))
	b.inner.MatMulBatchInto(out, a, c)
	b.tk.end(id)
}

func (b *timedBackend) MatMulTABatchInto(out, a, c *tensor.Tensor) {
	id := b.begin(kBatchGemm, a.Dim(2), gemmFlops(out, a.Dim(1)))
	b.inner.MatMulTABatchInto(out, a, c)
	b.tk.end(id)
}

func (b *timedBackend) MatMulTBBatchInto(out, a, c *tensor.Tensor) {
	id := b.begin(kBatchGemm, a.Dim(1), gemmFlops(out, a.Dim(2)))
	b.inner.MatMulTBBatchInto(out, a, c)
	b.tk.end(id)
}

func (b *timedBackend) Add(dst, a, c *tensor.Tensor) {
	id := b.begin(kEltwise, 0, float64(dst.Numel()))
	b.inner.Add(dst, a, c)
	b.tk.end(id)
}

func (b *timedBackend) Sub(dst, a, c *tensor.Tensor) {
	id := b.begin(kEltwise, 0, float64(dst.Numel()))
	b.inner.Sub(dst, a, c)
	b.tk.end(id)
}

func (b *timedBackend) Mul(dst, a, c *tensor.Tensor) {
	id := b.begin(kEltwise, 0, float64(dst.Numel()))
	b.inner.Mul(dst, a, c)
	b.tk.end(id)
}

func (b *timedBackend) Scale(dst, a *tensor.Tensor, s float32) {
	id := b.begin(kEltwise, 0, float64(dst.Numel()))
	b.inner.Scale(dst, a, s)
	b.tk.end(id)
}

func (b *timedBackend) Axpy(dst *tensor.Tensor, alpha float32, src *tensor.Tensor) {
	id := b.begin(kEltwise, 0, 2*float64(dst.Numel()))
	b.inner.Axpy(dst, alpha, src)
	b.tk.end(id)
}

func (b *timedBackend) Im2ColInto(out, x *tensor.Tensor, kh, kw, stride, pad int) {
	id := b.begin(kIm2col, 0, 0)
	b.inner.Im2ColInto(out, x, kh, kw, stride, pad)
	b.tk.end(id)
}

func (b *timedBackend) Col2ImInto(out, cols *tensor.Tensor, kh, kw, stride, pad int) {
	id := b.begin(kIm2col, 0, 0)
	b.inner.Col2ImInto(out, cols, kh, kw, stride, pad)
	b.tk.end(id)
}

func (b *timedBackend) ConvForwardInto(out, w, x *tensor.Tensor, kh, kw, stride, pad int) {
	id := b.begin(kConvGemm, w.Dim(0), gemmFlops(out, w.Dim(1)))
	b.inner.ConvForwardInto(out, w, x, kh, kw, stride, pad)
	b.tk.end(id)
}

func (b *timedBackend) ConvGradWeightInto(out, grad, x *tensor.Tensor, kh, kw, stride, pad int) {
	id := b.begin(kConvGemm, grad.Dim(0), gemmFlops(out, grad.Dim(1)))
	b.inner.ConvGradWeightInto(out, grad, x, kh, kw, stride, pad)
	b.tk.end(id)
}

var _ tensor.Backend = (*timedBackend)(nil)

// --- nn.Layer seam ------------------------------------------------------------

// timedLayer wraps one side of a distillation pair. It records a span
// around Forward and Backward, and — because it implements
// nn.BackendUser — receives the backend the engine applies, which it
// forwards to the wrapped layer inside a timedBackend whose spans name
// the layer's open span as their parent. Replicas built from the same
// constructor are wrapped the same way, so split groups still work.
type timedLayer struct {
	inner nn.Layer
	role  string // "teacher" or "student"
	tk    *track
	pass  int
	open  int32 // the span Forward/Backward is inside; -1 outside
}

func (l *timedLayer) timed(name string, rows int, f func() *tensor.Tensor) *tensor.Tensor {
	id := l.tk.begin(span{layer: "nn", name: name, pass: l.pass, parent: -1, rows: rows})
	l.open = id
	out := f()
	l.open = -1
	l.tk.end(id)
	return out
}

func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.timed(l.role+"_fwd", x.Dim(0), func() *tensor.Tensor { return l.inner.Forward(x, train) })
}

func (l *timedLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return l.timed(l.role+"_bwd", grad.Dim(0), func() *tensor.Tensor { return l.inner.Backward(grad) })
}

func (l *timedLayer) Params() []*nn.Param { return l.inner.Params() }

func (l *timedLayer) SetBackend(be tensor.Backend) {
	nn.ApplyBackend(l.inner, &timedBackend{inner: be, tk: l.tk, pass: l.pass, parent: &l.open})
}

var (
	_ nn.Layer       = (*timedLayer)(nil)
	_ nn.BackendUser = (*timedLayer)(nil)
)

// --- transport.Network seam ---------------------------------------------------

// timedNet wraps a Network like transport.Meter does — Dial is wrapped,
// Listen passes through, so each connection is seen once, from its
// dialing side — and times every Send and Recv on the dialed
// connections. role is "coord" for the coordinator's dial network and
// "peer" for the workers'.
type timedNet struct {
	inner transport.Network
	rec   *recorder
	role  string
	pass  int

	mu    sync.Mutex
	conns int
}

func (n *timedNet) Listen(addr string) (transport.Listener, error) { return n.inner.Listen(addr) }

func (n *timedNet) Dial(addr string) (transport.Conn, error) {
	conn, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	i := n.conns
	n.conns++
	n.mu.Unlock()
	// Send and Recv are driven by different goroutines, so each direction
	// gets its own track.
	return &timedConn{inner: conn, pass: n.pass,
		send: n.rec.track(fmt.Sprintf("%s-conn%d-send", n.role, i)),
		recv: n.rec.track(fmt.Sprintf("%s-conn%d-recv", n.role, i))}, nil
}

type timedConn struct {
	inner      transport.Conn
	pass       int
	send, recv *track
}

func (c *timedConn) Send(f *wire.Frame) error {
	id := c.send.begin(span{layer: "transport", name: "send", pass: c.pass, parent: -1})
	err := c.inner.Send(f)
	c.send.end(id)
	return err
}

func (c *timedConn) Recv() (*wire.Frame, error) {
	id := c.recv.begin(span{layer: "transport", name: "recv", pass: c.pass, parent: -1})
	f, err := c.inner.Recv()
	c.recv.end(id)
	return f, err
}

func (c *timedConn) Close() error { return c.inner.Close() }

var (
	_ transport.Network = (*timedNet)(nil)
	_ transport.Conn    = (*timedConn)(nil)
)
