package tensor

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Backend is a pluggable implementation of the numeric engine's hot
// kernels: the GEMM family behind Linear and (via im2col) Conv, and the
// elementwise ops used by gradient accumulation and MixedOp.
//
// Contract: every Backend must be bit-identical to the serial reference.
// Implementations achieve this by partitioning work along dimensions that
// never split a single output element's accumulation (output rows for
// GEMMs, column-matrix rows for im2col, input channels for col2im, flat
// indices for elementwise ops), so the floating-point evaluation order of
// each element is invariant. The engine's equivalence suite relies on
// this: pipelined runs must reproduce sequential training bit-for-bit on
// any backend.
//
// Backends must be safe for concurrent use by multiple goroutines; the
// pipelined engine issues kernels from one goroutine per device.
type Backend interface {
	// Name returns the backend's registry name.
	Name() string

	// MatMulInto computes out = a·b (a: [m,k], b: [k,n], out: [m,n]).
	MatMulInto(out, a, b *Tensor)
	// MatMulTAInto computes out = aᵀ·b (a: [k,m], b: [k,n], out: [m,n]).
	MatMulTAInto(out, a, b *Tensor)
	// MatMulTBInto computes out = a·bᵀ (a: [m,k], b: [n,k], out: [m,n]).
	MatMulTBInto(out, a, b *Tensor)

	// MatMulBatchInto computes out[g] = a[g]·b[g] for every instance
	// (a: [G,m,k], b: [G,k,n], out: [G,m,n]). Instance g is bit-identical
	// to MatMulInto on the g-th slices; the batched form exists so
	// dispatch and packing amortize over the whole batch (attention's
	// skinny per-head GEMMs).
	MatMulBatchInto(out, a, b *Tensor)
	// MatMulTABatchInto computes out[g] = a[g]ᵀ·b[g]
	// (a: [G,k,m], b: [G,k,n], out: [G,m,n]).
	MatMulTABatchInto(out, a, b *Tensor)
	// MatMulTBBatchInto computes out[g] = a[g]·b[g]ᵀ
	// (a: [G,m,k], b: [G,n,k], out: [G,m,n]).
	MatMulTBBatchInto(out, a, b *Tensor)

	// Add computes dst = a + b elementwise; dst may alias a or b.
	Add(dst, a, b *Tensor)
	// Sub computes dst = a - b elementwise; dst may alias a or b.
	Sub(dst, a, b *Tensor)
	// Mul computes dst = a * b elementwise; dst may alias a or b.
	Mul(dst, a, b *Tensor)
	// Scale computes dst = a * s elementwise; dst may alias a.
	Scale(dst, a *Tensor, s float32)
	// Axpy computes dst += alpha*src elementwise.
	Axpy(dst *Tensor, alpha float32, src *Tensor)

	// Im2ColInto unfolds x (NCHW) into out ([C*KH*KW, N*OH*OW]),
	// overwriting out entirely.
	Im2ColInto(out, x *Tensor, kh, kw, stride, pad int)
	// Col2ImInto folds cols ([C*KH*KW, N*OH*OW]) into out (NCHW),
	// overwriting out entirely.
	Col2ImInto(out, cols *Tensor, kh, kw, stride, pad int)

	// ConvForwardInto computes out = w·im2col(x) — the Conv2d forward
	// GEMM fused with the im2col lowering, packing kernel taps straight
	// from the NCHW input so no column matrix is materialized.
	// w: [OutC, C*KH*KW], out: [OutC, N*OH*OW]. Bit-identical to
	// Im2ColInto followed by MatMulInto.
	ConvForwardInto(out, w, x *Tensor, kh, kw, stride, pad int)
	// ConvGradWeightInto computes out = grad·im2col(x)ᵀ — the Conv2d
	// weight-gradient GEMM, fused likewise. grad: [OutC, N*OH*OW],
	// out: [OutC, C*KH*KW]. Bit-identical to Im2ColInto followed by
	// MatMulTBInto.
	ConvGradWeightInto(out, grad, x *Tensor, kh, kw, stride, pad int)
}

// --- process default ---------------------------------------------------------

// backendBox works around atomic.Value's same-concrete-type requirement.
type backendBox struct{ be Backend }

var defaultBackend atomic.Value // backendBox

func init() {
	Register(Serial{})
	Register(NewParallel(0))
	defaultBackend.Store(backendBox{Serial{}})
}

// Default returns the process-default backend: the one a layer or device
// loop runs on when it was given none. The initial default is the serial
// reference.
func Default() Backend { return defaultBackend.Load().(backendBox).be }

// SetDefault installs be as the process-default backend. It is safe to
// call concurrently with kernel execution, but for reproducible runs it
// should be called once at startup.
func SetDefault(be Backend) {
	if be == nil {
		panic("tensor: SetDefault(nil)")
	}
	defaultBackend.Store(backendBox{be})
}

// --- registry ----------------------------------------------------------------

var (
	registryMu sync.RWMutex
	registry   = map[string]Backend{}
)

// Register makes be selectable by name via Lookup. Re-registering a name
// replaces the previous backend.
func Register(be Backend) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[be.Name()] = be
}

// Lookup returns the backend registered under name.
func Lookup(name string) (Backend, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	be, ok := registry[name]
	return be, ok
}

// Backends returns the sorted names of all registered backends.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// --- serial reference backend ------------------------------------------------

// Serial is the single-threaded reference backend: the exact kernels the
// numeric-equivalence experiments were validated against. Every other
// backend is required to match it bit-for-bit.
type Serial struct{}

// Name implements Backend.
func (Serial) Name() string { return "serial" }

// MatMulInto implements Backend.
func (Serial) MatMulInto(out, a, b *Tensor) {
	gemm(nil, matMulOperands("MatMulInto", layoutAB, 2, out, a, b))
}

// MatMulTAInto implements Backend.
func (Serial) MatMulTAInto(out, a, b *Tensor) {
	gemm(nil, matMulOperands("MatMulTAInto", layoutTA, 2, out, a, b))
}

// MatMulTBInto implements Backend.
func (Serial) MatMulTBInto(out, a, b *Tensor) {
	gemm(nil, matMulOperands("MatMulTBInto", layoutTB, 2, out, a, b))
}

// MatMulBatchInto implements Backend.
func (Serial) MatMulBatchInto(out, a, b *Tensor) {
	gemm(nil, matMulOperands("MatMulBatchInto", layoutAB, 3, out, a, b))
}

// MatMulTABatchInto implements Backend.
func (Serial) MatMulTABatchInto(out, a, b *Tensor) {
	gemm(nil, matMulOperands("MatMulTABatchInto", layoutTA, 3, out, a, b))
}

// MatMulTBBatchInto implements Backend.
func (Serial) MatMulTBBatchInto(out, a, b *Tensor) {
	gemm(nil, matMulOperands("MatMulTBBatchInto", layoutTB, 3, out, a, b))
}

// ConvForwardInto implements Backend.
func (Serial) ConvForwardInto(out, w, x *Tensor, kh, kw, stride, pad int) {
	gemm(nil, convOperands("ConvForwardInto", layoutConv, out, w, x, kh, kw, stride, pad))
}

// ConvGradWeightInto implements Backend.
func (Serial) ConvGradWeightInto(out, grad, x *Tensor, kh, kw, stride, pad int) {
	gemm(nil, convOperands("ConvGradWeightInto", layoutConvT, out, grad, x, kh, kw, stride, pad))
}

// Add implements Backend.
func (Serial) Add(dst, a, b *Tensor) {
	checkElementwise3("Add", dst, a, b)
	addRange(dst.data, a.data, b.data, 0, len(dst.data))
}

// Sub implements Backend.
func (Serial) Sub(dst, a, b *Tensor) {
	checkElementwise3("Sub", dst, a, b)
	subRange(dst.data, a.data, b.data, 0, len(dst.data))
}

// Mul implements Backend.
func (Serial) Mul(dst, a, b *Tensor) {
	checkElementwise3("Mul", dst, a, b)
	mulRange(dst.data, a.data, b.data, 0, len(dst.data))
}

// Scale implements Backend.
func (Serial) Scale(dst, a *Tensor, s float32) {
	mustSameShape("Scale", dst, a)
	scaleRange(dst.data, a.data, s, 0, len(dst.data))
}

// Axpy implements Backend.
func (Serial) Axpy(dst *Tensor, alpha float32, src *Tensor) {
	mustSameShape("Axpy", dst, src)
	axpyRange(dst.data, src.data, alpha, 0, len(dst.data))
}

// Im2ColInto implements Backend.
func (Serial) Im2ColInto(out, x *Tensor, kh, kw, stride, pad int) {
	n, c, h, w, oh, ow := checkIm2ColOut(out, x, kh, kw, stride, pad)
	im2colRows(out.data, x.data, n, c, h, w, kh, kw, oh, ow, stride, pad, 0, c*kh*kw)
}

// Col2ImInto implements Backend.
func (Serial) Col2ImInto(out, cols *Tensor, kh, kw, stride, pad int) {
	n, c, h, w, oh, ow := checkCol2ImOut(out, cols, kh, kw, stride, pad)
	col2imChannels(out.data, cols.data, n, c, h, w, kh, kw, oh, ow, stride, pad, 0, c)
}

func checkElementwise3(op string, dst, a, b *Tensor) {
	mustSameShape(op, dst, a)
	mustSameShape(op, dst, b)
}

func checkCol2ImOut(out, cols *Tensor, kh, kw, stride, pad int) (n, c, h, w, oh, ow int) {
	if len(out.shape) != 4 {
		panic(fmt.Sprintf("tensor: Col2ImInto requires NCHW output, got shape %v", out.shape))
	}
	n, c, h, w = out.shape[0], out.shape[1], out.shape[2], out.shape[3]
	oh, ow = checkCol2Im(cols, n, c, h, w, kh, kw, stride, pad)
	return n, c, h, w, oh, ow
}

var _ Backend = Serial{}
