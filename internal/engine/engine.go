// Package engine executes blockwise distillation with real float32
// training: sequentially (RunSequential, the mathematical reference) or
// by playing a sched.Program — the schedule description the simulator
// (internal/pipeline) plays in virtual time — with real concurrency.
//
// Run gives every device a goroutine that takes the device's stages in
// order, step after step, phase after phase. A stage's members shard the
// step's input — the loader's batch, or the boundary activation relayed
// over a channel from the stage before (teacher relaying) — run the
// stage's teacher-only prefix, train its blocks, share gradients through
// a deterministic rank-ordered all-reduce when the stage is split, and
// update at once or behind the per-step barrier. So the paper's ladder
// runs through one device loop: DP and LS are sched.DataParallel and
// sched.Layerwise, and RunPipelined — TR, TR+DPU, TR+IR, AHD's hybrid
// groups — is sched.TeacherRelaying on Config.Plan. What talks to other
// devices sits behind DeviceLink, which the cluster implements over a
// wire to run the same loop in worker processes.
//
// This serves both halves of the paper's claim. Correctness: the
// equivalence tests prove that every schedule produces exactly the
// training trajectory of the sequential formulation ("no modification to
// the mathematical formulation") — LS bit for bit, DP bit for bit with
// internal relaying — which is also what lets a kernel, a backend or a
// transport be replaced under it and checked bit for bit. Throughput:
// RunMember is the device loop that `go run ./benchmark` times in-process
// and that the TCP cluster's workers run, so its samples per second, CPU
// and allocation per sample are gated metrics; the dispatch a program
// adds is per stage, never per layer, and built once per run.
package engine

import (
	"fmt"
	"math"
	"sync"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/nn"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// Config parameterizes a run.
type Config struct {
	// Plan and DPU name RunPipelined's program,
	// sched.TeacherRelaying(Plan, DPU); Run, which is handed its program,
	// reads neither. Plan distributes blocks over devices
	// (sched.TRContiguous-shaped plans give plain TR;
	// sched.InternalRelaying gives IR; hybrid plans give AHD behaviour).
	Plan sched.Plan
	// DPU enables decoupled parameter update: without it, a global
	// barrier delays every update until all devices finish their
	// backward pass (Fig. 3b); with it, devices update immediately and
	// start the next step (Fig. 3c).
	DPU bool
	// LR and Momentum configure each block's SGD optimizer.
	LR, Momentum float32
	// Backend selects the tensor compute backend for every block replica
	// (e.g. tensor.Lookup("parallel")). nil keeps whatever the workbench
	// and the process default already use. All backends are bit-identical,
	// so this is purely a throughput knob — the equivalence guarantees
	// hold regardless.
	Backend tensor.Backend
	// Trace, when non-nil, records per-device span events of the run: one
	// obs track per device of the program ("dev0", "dev1", ...), fed by the device
	// loop's phase instrumentation. Tracing never changes the training
	// trajectory; nil (the default) leaves the loop's instrumentation as
	// inert nil-track checks.
	Trace *obs.Tracer
}

// Result collects the training trajectory.
type Result struct {
	// Loss[b][s] is block b's distillation loss at step s (averaged over
	// group members when the block is trained data-parallel).
	Loss [][]float64
}

// FinalLoss returns the last-step loss of each block.
func (r Result) FinalLoss() []float64 {
	out := make([]float64, len(r.Loss))
	for b, l := range r.Loss {
		if len(l) > 0 {
			out[b] = l[len(l)-1]
		}
	}
	return out
}

// RunSequential trains every student block one step per batch in plain
// program order — the reference semantics of blockwise distillation.
// It mutates the workbench's student parameters, from zero momentum.
func RunSequential(w *distill.Workbench, batches []dataset.Batch, lr, momentum float32) Result {
	nb := w.NumBlocks()
	res := Result{Loss: make([][]float64, nb)}
	opt := nn.NewSGD(lr, momentum, 0)
	params := make([][]*nn.Param, nb)
	for b := 0; b < nb; b++ {
		w.Pairs[b].Slabs.Velocity.Zero()
		res.Loss[b] = make([]float64, len(batches))
		params[b] = w.Pairs[b].Student.Params()
	}
	mem, done := borrowStepMemory(Member{Pairs: w.Pairs}.layers())
	defer done()
	for s, batch := range batches {
		recycle(mem.carry)
		x := batch.X
		for b := 0; b < nb; b++ {
			pair := w.Pairs[b]
			pair.Slabs.Grads.Zero()
			x, res.Loss[b][s] = mem.step(pair, x, nil)
			opt.Step(params[b])
		}
	}
	return res
}

// attachArena makes every layer draw its tensors from ar; nil detaches.
func attachArena(layers []nn.Layer, ar *tensor.Arena) {
	for _, l := range layers {
		nn.ApplyArena(l, ar)
	}
}

// stepMemory is where a step loop's tensors live. The teacher is frozen
// and no gradient crosses a block boundary, so once a block's
// distillation step returns, everything it computed is dead except the
// teacher's output: block is reset before every block's step, and the
// outputs (with a split group's batch shard) are copied into carry, which
// is reset once per training step. What a loop holds at a time is one
// block's working set, not the step's.
type stepMemory struct{ block, carry *tensor.Arena }

// blockArenas and carryArenas lend every step loop its pair for the run,
// and relayArenas every relayed stage the buffers of its input boundary;
// all keep them for the life of the process (see tensor.ArenaCache): a
// worker restarting a session or an experiment sweep sizes them once. One
// cache per role: a carry arena never grows to a block's working set.
var blockArenas, carryArenas, relayArenas tensor.ArenaCache

// borrowStepMemory lends a loop its arenas and makes layers draw from the
// block arena; done detaches them, so they allocate normally again, and
// hands the arenas back.
func borrowStepMemory(layers []nn.Layer) (mem stepMemory, done func()) {
	mem = stepMemory{block: blockArenas.Get(), carry: carryArenas.Get()}
	attachArena(layers, mem.block)
	return mem, func() {
		attachArena(layers, nil)
		blockArenas.Put(mem.block)
		carryArenas.Put(mem.carry)
	}
}

// step runs one block's distillation step on x and returns the teacher's
// output, valid until carry is next recycled, and the loss.
func (mem stepMemory) step(p distill.Pair, x *tensor.Tensor, tk *obs.Track) (*tensor.Tensor, float64) {
	recycle(mem.block)
	tOut, loss := distill.StepObserved(p, x, tk, mem.block)
	return mem.keep(tOut), loss
}

// forward runs a teacher block of a stage's prefix, which trains nothing,
// on x; the output lives as long as step's.
func (mem stepMemory) forward(teacher nn.Layer, x *tensor.Tensor, tk *obs.Track) *tensor.Tensor {
	recycle(mem.block)
	r := tk.Begin(obs.CatTeacherFwd, "teacher_fwd")
	out := teacher.Forward(x, false)
	r.End()
	return mem.keep(out)
}

// keep copies a block's output out of the block arena into carry.
func (mem stepMemory) keep(out *tensor.Tensor) *tensor.Tensor {
	kept := mem.carry.Get(out.Shape()...)
	kept.CopyFrom(out)
	return kept
}

// poisonFreed, set by this package's tests only, fills every recycled
// buffer with NaN.
var poisonFreed bool

// relayMade, set by this package's tests only, is told at the end of a run
// how many buffers each relay boundary made.
var relayMade func(made int)

// relayDepth is how many boundary activations a stage may run ahead of
// the stage it feeds (the pipeline depth), the in-process counterpart of
// the cluster's ackWindow. It is pure scheduling and a constant of 2;
// only this package's depth-invariance test assigns it.
var relayDepth = 2

func recycle(ar *tensor.Arena) {
	ar.Reset()
	if poisonFreed {
		ar.Poison()
	}
}

// barrier is a reusable cyclic barrier for n participants.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until all n participants have called it.
func (b *barrier) Await() {
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// boundary is the relay into one stage: the full-batch activations in
// flight toward it and the buffers they travel in. The producer — the
// stage before, the boundary's only sender — takes a buffer, fills it and
// sends it; the consumer's member 0 hands it back at its next RecvInput,
// once every member is done with it. A buffer is made only when none is
// spare, so a boundary holds at most relayDepth+2: relayDepth in flight,
// the one the consumer reads and the one the producer fills. The bound
// needs the hand-back to come before the consumer takes the next
// activation, which frees the producer's send.
type boundary struct {
	flight chan *tensor.Tensor // at most relayDepth activations in flight
	spare  chan *tensor.Tensor // handed back; room for every buffer, so a hand-back never blocks
	ar     *tensor.Arena       // where buffers are made, by the producer only
	made   int
	held   *tensor.Tensor // the consumer's input, until member 0 hands it back
}

func newBoundary() *boundary {
	return &boundary{flight: make(chan *tensor.Tensor, relayDepth),
		spare: make(chan *tensor.Tensor, relayDepth+2), ar: relayArenas.Get()}
}

// take returns a buffer for k shards shaped like shard: a spare one, or
// one made in the boundary's arena when none is.
func (b *boundary) take(shard *tensor.Tensor, k int) *tensor.Tensor {
	select {
	case t := <-b.spare:
		return t
	default:
	}
	if b.made == cap(b.spare) {
		panic(fmt.Sprintf("engine: a relay boundary needs more than relayDepth+2 = %d buffers", b.made))
	}
	b.made++
	var dims [8]int
	shape := append(dims[:0], shard.Shape()...)
	shape[0] *= k
	return b.ar.Get(shape...)
}

// next hands the held input back and holds the next one. Only the
// consumer's member 0 calls it, once no member reads the held input.
func (b *boundary) next() {
	if b.held != nil {
		if poisonFreed {
			b.held.Fill(float32(math.NaN()))
		}
		b.spare <- b.held
	}
	b.held = <-b.flight
}

// stageRuntime is the shared state of one stage's members.
type stageRuntime struct {
	sched.Stage
	in  *boundary // nil reads the loader's batches
	out *boundary // nil unless the next stage is relayed

	sync *barrier // intra-stage phases (assembly, all-reduce)

	// grads[j] is member j's gradient slabs, one per block (nil in an
	// unsplit stage, which reduces nothing), losses the stage's
	// [member*blocks+block][step] matrix.
	grads  [][]*tensor.Tensor
	losses [][]float64

	// assembleMu latches the lazy take of assembled. It is per-stage
	// state: independent stages — and independent concurrent runs — must
	// never contend on a shared lock.
	assembleMu sync.Mutex
	// assembled is the full-batch teacher output under construction.
	assembled *tensor.Tensor
}

// RunPipelined trains the workbench by teacher relaying under cfg.Plan
// with real concurrency: Run on sched.TeacherRelaying(cfg.Plan, cfg.DPU).
func RunPipelined(w *distill.Workbench, batches []dataset.Batch, cfg Config) Result {
	return Run(w, batches, sched.TeacherRelaying(cfg.Plan, cfg.DPU), cfg)
}

// Run trains the workbench by playing prog, one goroutine per device. A
// block's trained weights are those of rank 0 of the stage that trains
// it, which therefore works on w's own pair; whatever else a device
// touches — a split stage's block as a later rank, a teacher block as
// part of a prefix — comes from a bit-identical replica the device has to
// itself, since no two devices may run one layer. Members of a split
// stage apply the same updates, so rank 0's weights are the result. Run
// returns the loss trajectory; the workbench's student parameters hold
// the trained values. Every trained block starts from zero momentum.
func Run(w *distill.Workbench, batches []dataset.Batch, prog sched.Program, cfg Config) Result {
	nb, nDev, steps := w.NumBlocks(), prog.NumDevices(), len(batches)
	if err := prog.Validate(nDev, nb); err != nil {
		panic(err)
	}
	if cfg.Backend != nil {
		w.SetBackend(cfg.Backend)
	}
	owner := make([]int, nb)
	for _, phase := range prog.Phases {
		for _, st := range phase {
			for _, b := range st.Blocks {
				owner[b] = st.Devices[0]
			}
		}
	}
	replicas := make([]*distill.Workbench, nDev)
	pairOn := func(d, b int) distill.Pair {
		if owner[b] == d {
			return w.Pairs[b]
		}
		if replicas[d] == nil {
			replicas[d] = w.Replica()
			if cfg.Backend != nil {
				replicas[d].SetBackend(cfg.Backend)
			}
		}
		return replicas[d].Pairs[b]
	}
	var stepSync *barrier
	if prog.Barrier {
		stepSync = newBarrier(nDev)
	}

	// Every device's stages, phase by phase, bound to their links.
	type device struct {
		phases [][]*memberRun
		layers []nn.Layer
		trace  *obs.Track
	}
	devs := make([]device, nDev)
	for d := range devs {
		devs[d].phases = make([][]*memberRun, len(prog.Phases))
		if cfg.Trace != nil {
			devs[d].trace = cfg.Trace.NewTrack(fmt.Sprintf("dev%d", d))
		}
	}
	opt := nn.NewSGD(cfg.LR, cfg.Momentum, 0)
	var stages []*stageRuntime
	for pi, phase := range prog.Phases {
		var prev *stageRuntime
		for si, st := range phase {
			k := st.Split()
			sr := &stageRuntime{Stage: st, sync: newBarrier(k), grads: make([][]*tensor.Tensor, k),
				losses: make([][]float64, len(st.Blocks)*k)}
			for i := range sr.losses {
				sr.losses[i] = make([]float64, steps)
			}
			if st.Relayed {
				sr.in = newBoundary()
				prev.out = sr.in
			}
			for j, d := range st.Devices {
				m := Member{Rank: j, GroupSize: k, Trace: devs[d].trace}
				if st.Relayed {
					m.Group = si
				}
				for b := st.Blocks[0] - st.Prefix(); b < st.Blocks[0]; b++ {
					m.Prefix = append(m.Prefix, pairOn(d, b).Teacher)
				}
				for _, b := range st.Blocks {
					pair := pairOn(d, b)
					pair.Slabs.Velocity.Zero()
					m.Pairs = append(m.Pairs, pair)
					m.Opts = append(m.Opts, opt)
				}
				run := newMemberRun(m, &memberLink{st: sr, j: j, batches: batches, stepSync: stepSync})
				sr.grads[j] = run.grads
				devs[d].phases[pi] = append(devs[d].phases[pi], run)
				devs[d].layers = append(devs[d].layers, m.layers()...)
			}
			stages = append(stages, sr)
			prev = sr
		}
	}

	var wg sync.WaitGroup
	for _, dev := range devs {
		if dev.layers == nil {
			continue // a device the program gives nothing to
		}
		// In device order: a device meets the arenas it sized last run.
		mem, done := borrowStepMemory(dev.layers)
		wg.Add(1)
		go func(phases [][]*memberRun) {
			defer wg.Done()
			defer done()
			runDevice(phases, 0, steps, mem)
		}(dev.phases)
	}
	wg.Wait()
	for _, sr := range stages {
		if sr.in != nil {
			if relayMade != nil {
				relayMade(sr.in.made)
			}
			relayArenas.Put(sr.in.ar)
		}
	}

	// Assemble the loss trajectory per block (mean over members).
	res := Result{Loss: make([][]float64, nb)}
	for _, sr := range stages {
		merged := MergeGroupLosses(sr.losses, len(sr.Blocks), sr.Split(), steps)
		for bi, b := range sr.Blocks {
			res.Loss[b] = merged[bi]
		}
	}
	return res
}

// MergeGroupLosses folds one group's per-member loss rows (indexed
// j*nb+bi, the layout ReportLosses fills) into per-block means, summing
// members in rank order before dividing — the float64 evaluation order is
// part of the engine's bit-equivalence contract, so every runtime
// (in-process and cluster coordinator) must merge through this helper.
func MergeGroupLosses(groupLosses [][]float64, nb, k, steps int) [][]float64 {
	merged := make([][]float64, nb)
	for bi := 0; bi < nb; bi++ {
		row := make([]float64, steps)
		for s := 0; s < steps; s++ {
			var sum float64
			for j := 0; j < k; j++ {
				sum += groupLosses[j*nb+bi][s]
			}
			row[s] = sum / float64(k)
		}
		merged[bi] = row
	}
	return merged
}

// assembleShard writes a member's teacher-output shard into the stage's
// full-batch assembly buffer. Members write disjoint ranges; the
// following barrier publishes the writes.
func (gr *stageRuntime) assembleShard(shard *tensor.Tensor, j int) {
	k := gr.Split()
	gr.assemblyOnce(shard, k)
	per := shard.Numel()
	copy(gr.assembled.Data()[j*per:(j+1)*per], shard.Data())
}

// assemblyOnce takes this step's assembly buffer from the boundary, for
// whichever member comes first.
func (gr *stageRuntime) assemblyOnce(shard *tensor.Tensor, k int) {
	gr.assembleMu.Lock()
	defer gr.assembleMu.Unlock()
	if gr.assembled == nil {
		gr.assembled = gr.out.take(shard, k)
	}
}

// averageGroupGradients implements a deterministic all-reduce: every
// member sums all members' gradient slabs in rank order into a private
// buffer, scales by 1/k, and installs the result into its own slabs after
// a barrier. All replicas therefore apply bit-identical updates.
func averageGroupGradients(gr *stageRuntime, j int, scratch *tensor.Arena) {
	inv := 1 / float32(gr.Split())
	// Phase 1: compute averaged gradients into private buffers.
	avg := make([]*tensor.Tensor, len(gr.grads[j]))
	for bi := range avg {
		sum := scratch.GetZeroed(gr.grads[j][bi].Shape()...)
		for _, grads := range gr.grads {
			tensor.AddInto(sum, grads[bi])
		}
		tensor.ScaleInPlace(sum, inv)
		avg[bi] = sum
	}
	gr.sync.Await() // everyone done reading raw gradients
	// Phase 2: install.
	for bi, g := range gr.grads[j] {
		g.CopyFrom(avg[bi])
	}
}

// shardOf slices member j's contiguous batch shard (copying into the
// member's arena, so members never alias the same backing array).
func shardOf(full *tensor.Tensor, j, k int, scratch *tensor.Arena) *tensor.Tensor {
	if k == 1 {
		return full
	}
	shape := full.Shape()
	if shape[0]%k != 0 {
		panic(fmt.Sprintf("engine: batch %d not divisible by group size %d", shape[0], k))
	}
	per := shape[0] / k
	elems := full.Numel() / shape[0]
	var dims [8]int // the shard's shape, on the stack
	out := scratch.Get(append(append(dims[:0], per), shape[1:]...)...)
	copy(out.Data(), full.Data()[j*per*elems:(j+1)*per*elems])
	return out
}
