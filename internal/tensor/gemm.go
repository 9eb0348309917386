package tensor

import "sync"

// Packed GEMM engine: the one path every GEMM takes. The kernel family
// (MatMul, MatMulTA, MatMulTB, their batched forms and the fused im2col
// GEMMs) is built from one register-blocked microkernel that reads A
// through strides and B through a table of row offsets (microOperands),
// each from a packed buffer or in place:
//
//   - B has three descriptions, and one addressing mode serves them all:
//     row p of a panel is the nrTile floats at b[boff[p]], the offset
//     table filled once per kcBlock on the tile loop's stack (bRows).
//     Packed, B is column panels of width nrTile: panel j holds output
//     columns [j*nrTile, (j+1)*nrTile) with row p at p*nrTile, so the
//     microkernel streams it sequentially; a partial trailing panel is
//     zero-padded to full width. A row-major B (layouts AB and TA) of
//     whole panels and at most inPlaceBMax floats is read in place, row
//     p at p*n. And a stride-1 conv forward whose output width is a
//     multiple of nrTile reads its taps in place: a panel is 8
//     consecutive output positions of one output row, so tap p = (c,
//     ki, kj) is 8 consecutive floats of the input, at (c·Hp + ki)·Wp +
//     kj from the panel's start. A conv that pads is read from a copy of
//     its input inside a zero border (Hp×Wp planes, padPlanes); a 1×1
//     conv reads the input itself. Every other conv B is packed
//     (im2colPackPanels, im2colPackPanelsT). The weight gradient's B is
//     always packed: it reduces over output positions, which both its
//     operands hold contiguously, so one of them must be transposed in
//     any layout, and the pack is that transpose — for a 1×1, stride-1,
//     unpadded conv, 8×8 register transposes of x on the vector tiers.
//   - A is never packed: every row tile reads it in place, mrTile rows
//     (fewer in a ragged last tile) at stride k, or for MatMulTA that
//     many contiguous floats per term at stride m.
//   - A conv forward is a batch of N GEMMs, one per image, that share
//     A: instance q multiplies the weights (A instance stride 0) by
//     image q's column matrix, so its [OutC, OH·OW] output block is
//     image q's NCHW slice and the result lands in NCHW as it is
//     computed. Every other call's instances lie back to back.
//   - The microkernel computes a rows×w register tile of two adjacent
//     panels (at most mrTile×2·nrTile), adding terms for every output
//     element in ascending-p order; the second panel's rows lie pair
//     floats past the first's (microOperands), and a lone trailing panel
//     passes pair 0. kcBlock splits the reduction so the active A rows
//     and B panels stay cache resident; between blocks the tile is
//     spilled to the output and reloaded, which does not change any
//     intermediate rounding. An edge tile (fewer than mrTile rows or
//     2·nrTile columns left) is bounded by its rows and w, not by zero
//     padding: it reads A rows < rows only and loads and stores only its
//     rows×w corner of the output, where it lies. Its B lanes past w are
//     a packed panel's zero padding, or a lone panel read twice, since B
//     is read in place only in whole panels.
//
// Bit-equivalence contract: for every output element the sequence of
// floating-point operations — one multiply and one add per p, terms in
// ascending-p order starting from zero — is identical across the
// kernels of every tier (kernelTier: the generic microkernel, and the
// AVX and AVX-512 microkernels of gemm_amd64.s, which vectorize across
// output columns so each lane is exactly the scalar sequence, with a
// separate multiply and add — never a fused multiply-add), and equal to
// the textbook loops the tests hold it to.
// Packing and bordering only move values, and an in-place read moves
// none: either way the kernel multiplies the same operand values in the
// same order. The serial and parallel backends therefore stay
// bit-identical, and so does the one shape-only decision left: B packed
// or read in place.
const (
	// mrTile × nrTile is a panel's share of the register tile: 8 output
	// rows × 8 output columns, one AVX vector per row. A microkernel
	// invocation covers two panels, one AVX-512 vector per row.
	mrTile = 8
	nrTile = 8

	// kcBlock tiles the reduction dimension so the A rows a row tile
	// reads (kcBlock*mrTile floats) and the active B panel stay cache
	// resident. Blocks ascend, so per-element accumulation order is
	// unchanged.
	kcBlock = 256

	// inPlaceBMax is the largest row-major B, in floats (k·n), that the
	// microkernel reads in place instead of from packed panels
	// (bInPlace), set from BenchmarkGemmInPlaceB's sweep of layouts AB and
	// TA at m ∈ {32, 512}, n ∈ {16, 64, 256}, k ∈ {16, …, 512} (2-vCPU
	// AVX-512 Xeon, the 8×16 tierAVX512 kernel, serial, best of 6;
	// in-place/packed time, the pack included). Up to 2¹² floats in place
	// wins or ties: median 0.88 over 32 shapes, down to 0.58 (TA
	// 32×16×256; TA 32×64×64 0.64), the worst 1.09 (TA 512×16×16) and
	// 1.06 (AB 512×16×64). Above it the median is 0.92, but the losses
	// fall on the large-m shapes (AB 512×256×64 1.20 — xfmr_inproc's own
	// dX — AB 512×512×16 1.18, TA 512×512×16 1.05): rows at a
	// power-of-two stride share cache sets, and a B past L1 is streamed
	// from L2 once per row tile. Both sides are bit-identical.
	inPlaceBMax = 1 << 12
)

// kernelTier names a set of kernels: the portable Go loops, the AVX
// lanes (the 8-wide GEMM microkernel and every row, tail, transcendental
// and depthwise kernel in *_amd64.s), or those lanes with the GEMM
// microkernel and the 3×3 depthwise conv in AVX-512 lanes, 16 wide.
// Every tier computes the same bits.
type kernelTier uint8

const (
	tierGeneric kernelTier = iota
	tierAVX
	tierAVX512
)

func (k kernelTier) String() string {
	return [...]string{"generic", "AVX", "AVX-512"}[k]
}

// tier selects the kernels every call runs. It is set once, at start-up,
// from what the CPU and the OS support (hostTier), so a host without AVX
// runs the generic kernels as every port without assembly does, and a
// host without AVX-512 the AVX ones; nothing else selects it. It is a
// package variable (not a constant) so the bit-equivalence suites can
// force a lower tier and pin every tier identical.
var tier = hostTier()

// packArenas recycles B's buffers across GEMM calls and goroutines: each
// call that packs B, or borders a conv input, borrows an Arena (see
// arena.go) for the length of the call, so steady-state GEMMs allocate
// nothing, collections or not.
var packArenas ArenaCache

// panelsOf returns the number of column panels covering n output
// columns, including a zero-padded trailing partial panel.
func panelsOf(n int) int { return (n + nrTile - 1) / nrTile }

// tilesOf returns the number of row tiles covering m output rows.
func tilesOf(m int) int { return (m + mrTile - 1) / mrTile }

// packedBLen is the element count of a packed-B buffer for a [k, n]
// operand: every panel is padded to full nrTile width.
func packedBLen(k, n int) int { return panelsOf(n) * nrTile * k }

// --- operands ----------------------------------------------------------------

// gemmLayout names how a GEMM's operands are stored.
type gemmLayout uint8

const (
	layoutAB    gemmLayout = iota // A [m, k], B [k, n] (MatMul)
	layoutTA                      // A [k, m], B [k, n] (MatMulTA)
	layoutTB                      // A [m, k], B [n, k] (MatMulTB)
	layoutConv                    // A [m, k], B the column matrix of conv over b (ConvForward)
	layoutConvT                   // A [m, k], B its transpose (ConvGradWeight)
)

// gemmOperands describes one call: out = A·B for each of g instances of
// one m×k×n shape, the instance outermost (g = 1 for the 2-D calls and
// the conv weight gradient). Instance q's A starts at q·as, its B at
// q·bs and its m·n output block at q·m·n: a batch lies back to back (as
// m·k, bs k·n), and a conv forward's images share the weights (as 0; bs
// C·H·W, and conv is one image's geometry). It is a value, so the
// serial path carries it on the stack and packs through its methods
// without allocating.
//
// A batch (g > 1) is the batched entry points' form: attention's
// per-(sample, head) score and context GEMMs are skinny (m ≈ sequence
// length, k ≈ head width), and as one call they pay the engine's fixed
// costs (arena borrow, buffer sizing, pool submission) once and feed a
// pool's workers from every instance. Instance q of a batch is
// bit-identical to the 2-D call on the q-th slices: both run the same
// per-element accumulation sequence.
type gemmOperands struct {
	out, a, b  []float32
	g, m, k, n int
	as, bs     int // instance strides of A and B
	layout     gemmLayout
	conv       convGeom // the im2col layouts' geometry; b is its NCHW input
}

// microOperands is what the microkernel reads for one tile, wherever it
// lies: A element (r, p) is a[r*rs+p*ps] and row p of B is the nrTile
// floats from b[boff[p]] in the first panel and from b[boff[p]+pair] in
// the second. Read in place, a row-major A is (rs k, ps 1) and a
// MatMulTA A (rs 1, ps m). The offset table describes each of B's three
// sources (bRows): a packed panel, rows p·nrTile; a row-major B, rows
// p·n; a stride-1 conv's input, tap p = (c, ki, kj) at (c·Hp + ki)·Wp +
// kj. Every table ascends, so its last entry bounds what a tile reads.
// pair is the distance between the two panels' starts (bPanel): k·nrTile
// between packed panels, nrTile in a row-major B, and in a conv input
// nrTile within an output row or the step to the next row's first panel;
// 0 for a lone panel.
type microOperands struct {
	a      []float32
	rs, ps int
	b      []float32
	boff   []int32
	pair   int
}

// bInPlace reports whether the microkernel reads o's B where it lies
// rather than from packed panels: a row-major B (layouts AB and TA) of
// whole panels whose k·n floats stay within inPlaceBMax, or the input of
// a stride-1 conv forward whose output rows are whole panels, so that
// each panel is 8 consecutive floats of every tap row (zero-bordered
// first when the conv pads, see bPrep). It depends only on the shape,
// never on the backend.
func (o *gemmOperands) bInPlace() bool {
	switch o.layout {
	case layoutAB, layoutTA:
		return o.n%nrTile == 0 && o.k*o.n <= inPlaceBMax
	case layoutConv:
		return o.conv.stride == 1 && o.conv.ow%nrTile == 0
	}
	return false
}

// bPrep returns what a call fills before its tiles run, in units of
// unitLen floats: the g·panelsOf(n) panels of a packed B, or, for a
// padded conv read in place, the input's N·C planes copied inside their
// zero border; nothing when B is read as it lies.
func (o *gemmOperands) bPrep(inPlace bool) (units, unitLen int) {
	switch {
	case !inPlace:
		return o.g * panelsOf(o.n), o.k * nrTile
	case o.layout == layoutConv && o.conv.pad > 0:
		hp, wp := o.conv.padded()
		return o.g * o.conv.c, hp * wp
	}
	return 0, 0
}

// prepB fills units [lo, hi) of bPrep into buf: packs panels, or copies
// input planes inside their border.
func (o *gemmOperands) prepB(buf []float32, inPlace bool, lo, hi int) {
	if inPlace {
		padPlanes(buf, o.b, o.conv, lo, hi)
	} else {
		o.packPanels(buf, lo, hi)
	}
}

// packB packs panels [pan0, pan1) of instance q's B into bp.
func (o *gemmOperands) packB(bp []float32, q, pan0, pan1 int) {
	b := o.b[q*o.bs:]
	switch o.layout {
	case layoutTB:
		packBPanelsTB(bp, b, o.k, o.n, pan0, pan1)
	case layoutConv:
		im2colPackPanels(bp, b, o.conv, pan0, pan1)
	case layoutConvT:
		im2colPackPanelsT(bp, b, o.conv, pan0, pan1)
	default:
		packBPanels(bp, b, o.k, o.n, pan0, pan1)
	}
}

// aTile points t at row i0 × reduction index p0 of instance q's A, in
// place.
func (o *gemmOperands) aTile(t *microOperands, q, i0, p0 int) {
	a := o.a[q*o.as:]
	if o.layout == layoutTA {
		t.a, t.rs, t.ps = a[p0*o.m+i0:], 1, o.m
	} else {
		t.a, t.rs, t.ps = a[i0*o.k+p0:], o.k, 1
	}
}

// packPanels packs flat panels [lo, hi) — panel f is panel f%panelsOf(n)
// of instance f/panelsOf(n) — into bp, one packedBLen(k, n) per instance.
func (o *gemmOperands) packPanels(bp []float32, lo, hi int) {
	pans, stride := panelsOf(o.n), packedBLen(o.k, o.n)
	for f := lo; f < hi; {
		q, pan0 := f/pans, f%pans
		pan1 := min(pans, pan0+hi-f)
		o.packB(bp[q*stride:(q+1)*stride], q, pan0, pan1)
		f += pan1 - pan0
	}
}

// tiles computes flat row tiles [lo, hi) — tile f is row tile
// f%tilesOf(m) of instance f/tilesOf(m) — reading B from b: its packed
// panels, or when inPlace, B where it lies (o.b, or a padded conv's
// zero-bordered copy of it). A is read in place. Each kernel call covers
// a pair of panels, the trailing one alone when their count is odd. A
// row tile is one goroutine's, so every output element's accumulation
// is too.
func (o *gemmOperands) tiles(b []float32, inPlace bool, lo, hi int) {
	m, k, n := o.m, o.k, o.n
	tiles, pans := tilesOf(m), panelsOf(n)
	var t microOperands
	var boff [kcBlock]int32
	filled := -1 // the kc block boff describes
	for f := lo; f < hi; f++ {
		q, i0 := f/tiles, f%tiles*mrTile
		rows := min(mrTile, m-i0)
		od := o.out[(q*m+i0)*n:]
		for p0 := 0; p0 < k; p0 += kcBlock {
			p1 := min(p0+kcBlock, k)
			if p0 != filled {
				o.bRows(boff[:p1-p0], inPlace, p0)
				filled = p0
			}
			t.boff = boff[:p1-p0]
			o.aTile(&t, q, i0, p0)
			for pan := 0; pan < pans; pan += 2 {
				j0, at := pan*nrTile, o.bPanel(inPlace, q, pan)
				t.b, t.pair = b[at:], 0
				if pan+1 < pans {
					t.pair = o.bPanel(inPlace, q, pan+1) - at
				}
				microKernel(od[j0:], n, &t, p1-p0, rows, min(2*nrTile, n-j0), p0 > 0)
			}
		}
	}
}

// bRows fills boff with the offsets of B rows [p0, p0+len(boff)) from
// the start of a panel (bPanel), ascending: p·nrTile in a packed panel,
// p·n in a row-major B, and for tap p = (c, ki, kj) of a conv input
// (c·Hp + ki)·Wp + kj, the same for every panel.
func (o *gemmOperands) bRows(boff []int32, inPlace bool, p0 int) {
	step := nrTile
	switch {
	case !inPlace:
	case o.layout == layoutConv:
		g := o.conv
		hp, wp := g.padded()
		for i := range boff {
			p := p0 + i
			boff[i] = int32((p/(g.kh*g.kw)*hp+p/g.kw%g.kh)*wp + p%g.kw)
		}
		return
	default:
		step = o.n
	}
	for i := range boff {
		boff[i] = int32((p0 + i) * step)
	}
}

// bPanel returns where panel pan of instance q starts in what tiles reads
// B from. A conv panel is 8 consecutive output positions of one output
// row (oi) of image q, so it starts at its first position's tap
// (0, 0, 0).
func (o *gemmOperands) bPanel(inPlace bool, q, pan int) int {
	j0 := pan * nrTile
	switch {
	case !inPlace:
		return q*packedBLen(o.k, o.n) + pan*o.k*nrTile
	case o.layout == layoutConv:
		g := o.conv
		hp, wp := g.padded()
		return (q*g.c*hp+j0/g.ow)*wp + j0%g.ow
	}
	return q*o.bs + j0
}

// --- operand packing ---------------------------------------------------------

// packBPanels packs panels [pan0,pan1) of a row-major [k, n] operand.
func packBPanels(bp, bd []float32, k, n, pan0, pan1 int) {
	for pan := pan0; pan < pan1; pan++ {
		j0 := pan * nrTile
		w := min(nrTile, n-j0)
		dst := bp[pan*k*nrTile:]
		if w == nrTile {
			for p := 0; p < k; p++ {
				s := bd[p*n+j0 : p*n+j0+nrTile : p*n+j0+nrTile]
				d := dst[p*nrTile : p*nrTile+nrTile : p*nrTile+nrTile]
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
				d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
			}
			continue
		}
		for p := 0; p < k; p++ {
			d := dst[p*nrTile : (p+1)*nrTile]
			c := copy(d, bd[p*n+j0:p*n+j0+w])
			for ; c < nrTile; c++ {
				d[c] = 0
			}
		}
	}
}

// packBPanelsTB packs panels [pan0,pan1) of a [n, k] operand whose
// transpose is the GEMM's B (the MatMulTB layout): element (p, c) of
// panel j is bd[(j*nrTile+c)*k + p].
func packBPanelsTB(bp, bd []float32, k, n, pan0, pan1 int) {
	for pan := pan0; pan < pan1; pan++ {
		j0 := pan * nrTile
		w := min(nrTile, n-j0)
		dst := bp[pan*k*nrTile : (pan+1)*k*nrTile]
		for c := 0; c < w; c++ {
			src := bd[(j0+c)*k : (j0+c+1)*k]
			for p, v := range src {
				dst[p*nrTile+c] = v
			}
		}
		for c := w; c < nrTile; c++ {
			for p := 0; p < k; p++ {
				dst[p*nrTile+c] = 0
			}
		}
	}
}

// --- microkernels ------------------------------------------------------------

// microGeneric computes a rows×w output tile of a panel pair from the
// operands t describes in pure Go: the portable kernel, full tiles and
// edge tiles alike. The per-element loop is the canonical accumulation
// sequence (ascending p, one multiply and one add per term).
func microGeneric(od []float32, ldo int, t *microOperands, pc, rows, w int, accumulate bool) {
	for r := 0; r < rows; r++ {
		orow := od[r*ldo : r*ldo+w]
		arow := t.a[r*t.rs:]
		for c := range orow {
			b := t.b[c/nrTile*t.pair+c%nrTile:]
			var s float32
			if accumulate {
				s = orow[c]
			}
			for p := 0; p < pc; p++ {
				s += float32(arow[p*t.ps] * b[t.boff[p]])
			}
			orow[c] = s
		}
	}
}

// --- driver ------------------------------------------------------------------

// gemm runs the call o describes in two steps. First, unless B is read
// as it lies, it fills a buffer borrowed from packArenas (bPrep): every
// instance's packed panels, or a padded conv's input copied inside a
// zero border — on every call, as the arena's memory is reused. Then it
// sweeps row tiles. With a nil pool it runs serially; with a pool it
// partitions the first step over flat (instance, panel) or plane
// indices and the second over flat (instance, row tile) indices, so B is
// prepared once and shared by every worker and a batch of skinny GEMMs
// still feeds them all.
func gemm(pool *Pool, o gemmOperands) {
	inPlace := o.bInPlace()
	units, unitLen := o.bPrep(inPlace)
	tiles := o.g * tilesOf(o.m)
	var ar *Arena
	b := o.b
	if units > 0 {
		ar = packArenas.getLocal()
		b = ar.Get(units * unitLen).data
	}
	if pool == nil {
		if units > 0 {
			o.prepB(b, inPlace, 0, units)
		}
		o.tiles(b, inPlace, 0, tiles)
	} else {
		j := getJob(&o, b, inPlace)
		if units > 0 {
			pool.ParallelFor(units, rowGrain(unitLen, elemGrainElems), j.prep)
		}
		pool.ParallelFor(tiles, rowGrain(mrTile*o.k*o.n, gemmGrainFlops), j.tile)
		putJob(j)
	}
	if ar != nil {
		packArenas.putLocal(ar)
	}
}

// gemmJob is what a call on a pool shares with the workers: a copy of its
// operands, what the tiles read B from, and the loop bodies over them,
// bound once per job. Jobs are recycled, as ParallelFor recycles its
// own, so a pooled call allocates nothing; ParallelFor returns only once
// every body has.
type gemmJob struct {
	o          gemmOperands
	b          []float32
	inPlace    bool
	prep, tile func(lo, hi int)
}

var gemmJobs = sync.Pool{New: func() any {
	j := new(gemmJob)
	j.prep = func(lo, hi int) { j.o.prepB(j.b, j.inPlace, lo, hi) }
	j.tile = func(lo, hi int) { j.o.tiles(j.b, j.inPlace, lo, hi) }
	return j
}}

func getJob(o *gemmOperands, b []float32, inPlace bool) *gemmJob {
	j := gemmJobs.Get().(*gemmJob)
	j.o, j.b, j.inPlace = *o, b, inPlace
	return j
}

// putJob recycles j, dropping its references to the call's memory.
func putJob(j *gemmJob) {
	j.o, j.b = gemmOperands{}, nil
	gemmJobs.Put(j)
}
