package tensor

import (
	"fmt"
	"time"
)

// Throttled is a compute straggler: it delegates every kernel to an
// inner backend untouched — so it is bit-identical to the inner backend
// by construction — and then waits (factor−1)× the time the kernel took,
// so each Backend kernel (GEMMs, im2col/col2im, the conv GEMMs and the
// elementwise Add, Sub, Mul, Scale, Axpy) takes factor× as long. Work
// outside the Backend — the depthwise conv, BatchNorm, ReLU, MSE, the row
// kernels and the layers' glue — runs at full speed, so the device slows
// by less than the factor: at 4, dev0 of tr3 at batch 8 measured ≈1.9×
// its block compute at p50 (2-vCPU Linux VM). It is the real, wall-clock
// slow rank (pipebd worker -slowdown): unlike a transport delay, the
// injected cost scales with the work the device hosts, so moving blocks
// off the throttled device genuinely shrinks its step time. The repartition suites use a costed
// backend instead, which charges each kernel to a virtual clock the
// device's spans read, so what they measure is not host noise.
type Throttled struct {
	inner  Backend
	factor int
}

// NewThrottled wraps inner with a slowdown factor (>= 1; 1 is a
// pass-through). A factor of f makes every Backend kernel take about f
// times as long.
func NewThrottled(inner Backend, factor int) Throttled {
	if factor < 1 {
		panic(fmt.Sprintf("tensor: throttle factor %d < 1", factor))
	}
	return Throttled{inner: inner, factor: factor}
}

// Name returns e.g. "serial+slow4".
func (t Throttled) Name() string { return fmt.Sprintf("%s+slow%d", t.inner.Name(), t.factor) }

// throttleSleep is both the shortest sleep pace takes and the margin it
// spins out: a sleep costs at least the OS timer's granularity (measured
// ~1.1 ms for any request under 1 ms, go1.24 on a 2-vCPU Linux VM), far
// more than a kernel's few µs.
const throttleSleep = time.Millisecond

// pace holds the caller for (factor-1)× the elapsed kernel time, inside
// the kernel's own spans, so each block's spans carry its own slowdown:
// a wait of 2·throttleSleep or more sleeps all but its last
// throttleSleep, and the rest is spun out on the clock.
func (t Throttled) pace(start time.Time) {
	if t.factor == 1 {
		return
	}
	end := time.Now().Add(time.Duration(t.factor-1) * time.Since(start))
	if d := time.Until(end) - throttleSleep; d >= throttleSleep {
		time.Sleep(d)
	}
	for time.Now().Before(end) {
	}
}

func (t Throttled) MatMulInto(out, a, b *Tensor) {
	defer t.pace(time.Now())
	t.inner.MatMulInto(out, a, b)
}

func (t Throttled) MatMulTAInto(out, a, b *Tensor) {
	defer t.pace(time.Now())
	t.inner.MatMulTAInto(out, a, b)
}

func (t Throttled) MatMulTBInto(out, a, b *Tensor) {
	defer t.pace(time.Now())
	t.inner.MatMulTBInto(out, a, b)
}

func (t Throttled) MatMulBatchInto(out, a, b *Tensor) {
	defer t.pace(time.Now())
	t.inner.MatMulBatchInto(out, a, b)
}

func (t Throttled) MatMulTABatchInto(out, a, b *Tensor) {
	defer t.pace(time.Now())
	t.inner.MatMulTABatchInto(out, a, b)
}

func (t Throttled) MatMulTBBatchInto(out, a, b *Tensor) {
	defer t.pace(time.Now())
	t.inner.MatMulTBBatchInto(out, a, b)
}

func (t Throttled) Add(dst, a, b *Tensor) {
	defer t.pace(time.Now())
	t.inner.Add(dst, a, b)
}

func (t Throttled) Sub(dst, a, b *Tensor) {
	defer t.pace(time.Now())
	t.inner.Sub(dst, a, b)
}

func (t Throttled) Mul(dst, a, b *Tensor) {
	defer t.pace(time.Now())
	t.inner.Mul(dst, a, b)
}

func (t Throttled) Scale(dst, a *Tensor, s float32) {
	defer t.pace(time.Now())
	t.inner.Scale(dst, a, s)
}

func (t Throttled) Axpy(dst *Tensor, alpha float32, src *Tensor) {
	defer t.pace(time.Now())
	t.inner.Axpy(dst, alpha, src)
}

func (t Throttled) Im2ColInto(out, x *Tensor, kh, kw, stride, pad int) {
	defer t.pace(time.Now())
	t.inner.Im2ColInto(out, x, kh, kw, stride, pad)
}

func (t Throttled) Col2ImInto(out, cols *Tensor, kh, kw, stride, pad int) {
	defer t.pace(time.Now())
	t.inner.Col2ImInto(out, cols, kh, kw, stride, pad)
}

func (t Throttled) ConvForwardInto(out, w, x *Tensor, kh, kw, stride, pad int) {
	defer t.pace(time.Now())
	t.inner.ConvForwardInto(out, w, x, kh, kw, stride, pad)
}

func (t Throttled) ConvGradWeightInto(out, grad, x *Tensor, kh, kw, stride, pad int) {
	defer t.pace(time.Now())
	t.inner.ConvGradWeightInto(out, grad, x, kh, kw, stride, pad)
}

var _ Backend = Throttled{}
