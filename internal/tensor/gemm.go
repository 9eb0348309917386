package tensor

import "sync"

// Packed GEMM engine. The kernel family (MatMul, MatMulTA, MatMulTB, their
// batched forms and the fused im2col GEMMs) is built from one
// register-blocked microkernel operating on panel-packed operands:
//
//   - B is packed into column panels of width nrTile: panel j holds
//     output columns [j*nrTile, (j+1)*nrTile) with element (p, c) at
//     offset p*nrTile+c, so the microkernel streams it sequentially.
//     Partial trailing panels are zero-padded to full width.
//   - A is packed per output row tile into an interleaved [kc][mrTile]
//     strip, again giving the microkernel unit-stride loads. Rows past
//     the matrix are zero-padded.
//   - The microkernel computes an mrTile×nrTile register tile, adding
//     terms for every output element in ascending-p order. kcBlock splits
//     the reduction so the active packed strips stay cache resident;
//     between blocks the tile is spilled to the output and reloaded,
//     which does not change any intermediate rounding. A ragged edge tile
//     (fewer than mrTile rows or nrTile columns left) runs the same
//     kernel on a full stack tile and keeps only its valid corner.
//
// Bit-equivalence contract: for every output element the sequence of
// floating-point operations — one multiply and one add per p, terms in
// ascending-p order starting from zero — is identical across the
// reference kernels (matmul.go), the generic microkernel, and the AVX
// microkernel (gemm_amd64.s, which vectorizes across output columns so
// each lane is exactly the scalar sequence, with a separate multiply and
// add — never a fused multiply-add). Packing only moves values,
// and the lanes an edge tile discards only ever multiply zero padding.
// The serial and parallel backends therefore stay bit-identical, and so
// does every dispatch decision between the packed and reference paths.
const (
	// mrTile × nrTile is the register tile: 8 output rows × 8 output
	// columns (one AVX vector per row) per microkernel invocation.
	mrTile = 8
	nrTile = 8

	// kcBlock tiles the reduction dimension so the packed strips of A
	// (kcBlock*mrTile floats) and the active B panel stay cache
	// resident. Blocks ascend, so per-element accumulation order is
	// unchanged.
	kcBlock = 256

	// packedMinWork and packedMinInstance are the floors of the one
	// dispatch rule (gemmShouldPack), set from BenchmarkGemmFloor's sweep
	// of both paths (2-vCPU AVX2 Xeon, serial, median of 5): a call pays
	// ~150 ns of fixed packing costs, so the crossover lies below 2⁹
	// multiply-adds, where it lay with the 4-row tile (packed/ref 2×8×8
	// 1.7, 4×4×8 1.0, 6×6×6 0.85, 4×8×8 0.62), and from 2⁹ up packing
	// wins or ties (8×8×8 0.37, 4×8×16 0.42, 2×16×16 0.96). The floor
	// stays at 2⁹, above the shapes where the reference kernels win or
	// tie, so the few 2⁸-sized ones that would pack faster run the
	// reference kernels. Every instance of a batch pays ~60 ns more, so instances of
	// 64 multiply-adds or fewer lose 1.4–2.9× packed, however many there
	// are, while 4×4×8 ones win (0.80). Both sides are bit-identical, so
	// the floors are purely a performance choice.
	packedMinWork     = 1 << 9
	packedMinInstance = 1 << 7
)

// packArenas recycles packing buffers across GEMM calls and goroutines:
// each kernel invocation borrows an Arena (see arena.go) for the length of
// the call, so steady-state GEMMs allocate nothing, collections or not.
var packArenas ArenaCache

// gemmShouldPack reports whether a batch of g m×k×n GEMMs (g = 1 for a
// 2-D call) takes the packed path: the one rule every GEMM entry point
// dispatches by. The batch as a whole must reach the per-call floor —
// skinny-but-many shapes amortize what a lone skinny call cannot — and
// each instance the per-instance one. A single output row (m = 1) packs
// a whole B to use each packed value once, so it never pays. The
// decision depends only on the shape, never on the backend, so serial
// and parallel runs dispatch identically.
func gemmShouldPack(g, m, k, n int) bool {
	return m >= 2 && m*k*n >= packedMinInstance && g*m*k*n >= packedMinWork
}

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
// one m×k×n shape, laid out back to back with the instance outermost (g
// = 1 for the 2-D and conv calls). It is a value, so the serial path
// carries it on the stack and packs through its methods without
// allocating.
//
// A batch (g > 1) is the batched entry points' form: attention's
// per-(sample, head) score and context GEMMs are skinny (m ≈ sequence
// length, k ≈ head width), and as one call they are judged by
// gemmShouldPack as a whole and pay the packed engine's fixed costs
// (arena borrow, buffer sizing, pool submission) once. Instance q of a
// batch is bit-identical to the 2-D call on the q-th slices: every path
// runs the same per-element accumulation sequence.
type gemmOperands struct {
	out, a, b  []float32
	g, m, k, n int
	layout     gemmLayout
	conv       convGeom // the im2col layouts' geometry; b is its NCHW input
}

// packB packs panels [pan0, pan1) of instance q's B into bp.
func (o *gemmOperands) packB(bp []float32, q, pan0, pan1 int) {
	b := o.b[q*o.k*o.n:]
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

// packA packs rows [i0, i0+rows) × reduction range [p0, p1) of instance
// q's A into the strip ap.
func (o *gemmOperands) packA(ap []float32, q, i0, rows, p0, p1 int) {
	a := o.a[q*o.m*o.k:]
	if o.layout == layoutTA {
		packATileT(ap, a, o.m, i0, rows, p0, p1)
		return
	}
	packATile(ap, a, o.k, i0, rows, p0, p1)
}

// refRows computes flat output rows [lo, hi) — row r is row r%m of
// instance r/m — with the reference kernels. The conv layouts always
// pack, so they never come here.
func (o *gemmOperands) refRows(lo, hi int) {
	m, k, n := o.m, o.k, o.n
	for r := lo; r < hi; {
		q, i0 := r/m, r%m
		i1 := min(m, i0+hi-r)
		od, a, b := o.out[q*m*n:], o.a[q*m*k:], o.b[q*k*n:]
		switch o.layout {
		case layoutTA:
			matMulTARowsRef(od, a, b, k, m, n, i0, i1)
		case layoutTB:
			matMulTBRowsRef(od, a, b, k, n, i0, i1)
		default:
			matMulRowsRef(od, a, b, k, n, i0, i1)
		}
		r += i1 - i0
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
// f%tilesOf(m) of instance f/tilesOf(m) — from the packed panels bp,
// packing A into ap, a strip of kcBlock*mrTile floats. A row tile is
// one goroutine's, so every output element's accumulation is too.
func (o *gemmOperands) tiles(bp, ap []float32, lo, hi int) {
	m, k, n := o.m, o.k, o.n
	tiles, pans := tilesOf(m), panelsOf(n)
	for f := lo; f < hi; f++ {
		q, i0 := f/tiles, f%tiles*mrTile
		rows := min(mrTile, m-i0)
		od, bq := o.out[(q*m+i0)*n:], bp[q*packedBLen(k, n):]
		for p0 := 0; p0 < k; p0 += kcBlock {
			p1 := min(p0+kcBlock, k)
			o.packA(ap, q, i0, rows, p0, p1)
			for pan := 0; pan < pans; pan++ {
				j0 := pan * nrTile
				w := min(nrTile, n-j0)
				bpan := bq[(pan*k+p0)*nrTile:]
				if rows == mrTile && w == nrTile {
					microKernel(od[j0:], n, ap, bpan, p1-p0, p0 > 0)
				} else {
					microEdge(od[j0:], n, ap, bpan, p1-p0, rows, w, p0 > 0)
				}
			}
		}
	}
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

// packATile packs rows [i0, i0+rows) × reduction range [p0, p1) of a
// row-major operand with row stride lda into the interleaved [pc][mrTile]
// strip the microkernel consumes. Rows beyond the matrix (partial tiles)
// are zero-padded; the pad lanes are discarded by the edge microkernel
// and multiply against packed data only, so they never affect results.
func packATile(ap, ad []float32, lda, i0, rows, p0, p1 int) {
	pc := p1 - p0
	for r := 0; r < mrTile; r++ {
		if r >= rows {
			for p := 0; p < pc; p++ {
				ap[p*mrTile+r] = 0
			}
			continue
		}
		src := ad[(i0+r)*lda+p0 : (i0+r)*lda+p1]
		for p, v := range src {
			ap[p*mrTile+r] = v
		}
	}
}

// packATileT is packATile for a [k, m] operand read along columns (the
// MatMulTA layout): output row i is column i of the operand.
func packATileT(ap, ad []float32, m, i0, rows, p0, p1 int) {
	for p := p0; p < p1; p++ {
		base := p * m
		d := ap[(p-p0)*mrTile : (p-p0+1)*mrTile]
		for r := 0; r < rows; r++ {
			d[r] = ad[base+i0+r]
		}
		for r := rows; r < mrTile; r++ {
			d[r] = 0
		}
	}
}

// --- microkernels ------------------------------------------------------------

// microGeneric computes a rows×w output tile from packed strips in pure
// Go: the portable kernel, full tiles and edge tiles alike. The
// per-element loop is the canonical accumulation sequence (ascending p,
// one multiply and one add per term).
func microGeneric(od []float32, ldo int, ap, bp []float32, pc, rows, w int, accumulate bool) {
	for r := 0; r < rows; r++ {
		orow := od[r*ldo : r*ldo+w]
		for c := range orow {
			var s float32
			if accumulate {
				s = orow[c]
			}
			for p := 0; p < pc; p++ {
				s += ap[p*mrTile+r] * bp[p*nrTile+c]
			}
			orow[c] = s
		}
	}
}

// --- driver ------------------------------------------------------------------

// gemm runs the call o describes: on the packed engine, or on the
// reference kernels when gemmShouldPack says the shape is too small to
// repay packing. The conv layouts always pack: their column matrix only
// exists packed, and materializing it for the reference kernels would
// write the same k·n values the fused pack writes.
func gemm(pool *Pool, o gemmOperands) {
	if o.layout >= layoutConv || gemmShouldPack(o.g, o.m, o.k, o.n) {
		gemmPacked(pool, &o)
		return
	}
	if pool == nil {
		o.refRows(0, o.g*o.m)
		return
	}
	j := getJob(&o, nil)
	pool.ParallelFor(o.g*o.m, rowGrain(o.k*o.n, gemmGrainFlops), j.ref)
	putJob(j)
}

// gemmPacked runs o on the packed engine: pack every instance's B into
// panels, then sweep row tiles. With a nil pool it runs serially; with a
// pool it partitions the pack over flat (instance, panel) indices and the
// compute over flat (instance, row tile) indices, so panels are packed
// once and shared by every worker and a batch of skinny GEMMs still
// feeds them all.
func gemmPacked(pool *Pool, o *gemmOperands) {
	pans, tiles := o.g*panelsOf(o.n), o.g*tilesOf(o.m)
	ar := packArenas.getLocal()
	bp := ar.Get(o.g * packedBLen(o.k, o.n)).data
	if pool == nil {
		o.packPanels(bp, 0, pans)
		o.tiles(bp, ar.Get(kcBlock*mrTile).data, 0, tiles)
	} else {
		j := getJob(o, bp)
		pool.ParallelFor(pans, rowGrain(o.k*nrTile, elemGrainElems), j.pack)
		pool.ParallelFor(tiles, rowGrain(mrTile*o.k*o.n, gemmGrainFlops), j.tile)
		putJob(j)
	}
	packArenas.putLocal(ar)
}

// gemmJob is what a call on a pool shares with the workers: a copy of its
// operands, its packed panels, and the loop bodies over them, bound once
// per job. Jobs are recycled, so a pooled call allocates no more than
// ParallelFor does; ParallelFor returns only once every body has.
type gemmJob struct {
	o               gemmOperands
	bp              []float32
	ref, pack, tile func(lo, hi int)
}

var gemmJobs = sync.Pool{New: func() any {
	j := new(gemmJob)
	j.ref = func(lo, hi int) { j.o.refRows(lo, hi) }
	j.pack = func(lo, hi int) { j.o.packPanels(j.bp, lo, hi) }
	j.tile = func(lo, hi int) {
		ar := packArenas.getLocal()
		j.o.tiles(j.bp, ar.Get(kcBlock*mrTile).data, lo, hi)
		packArenas.putLocal(ar)
	}
	return j
}}

func getJob(o *gemmOperands, bp []float32) *gemmJob {
	j := gemmJobs.Get().(*gemmJob)
	j.o, j.bp = *o, bp
	return j
}

// putJob recycles j, dropping its references to the call's memory.
func putJob(j *gemmJob) {
	j.o, j.bp = gemmOperands{}, nil
	gemmJobs.Put(j)
}
