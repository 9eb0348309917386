// Package engine executes blockwise distillation with real float32
// training, either sequentially (the mathematical reference) or as a
// Pipe-BD pipeline: one goroutine per device, teacher activations relayed
// over channels (teacher relaying), updates applied immediately after each
// device's backward pass (decoupled parameter update) or behind a global
// per-step barrier, and hybrid groups training shared blocks
// data-parallel with a deterministic intra-group gradient all-reduce
// (automatic hybrid distribution).
//
// This is Algorithm 1 of the paper realized with actual concurrency, and
// it serves both halves of the paper's claim. Correctness: the
// equivalence tests prove that every pipelined schedule produces exactly
// the training trajectory of the sequential formulation ("no
// modification to the mathematical formulation"), which is also what
// lets a kernel, a backend or a transport be replaced under it and
// checked bit for bit. Throughput: RunMember is the device loop that
// `go run ./benchmark` times in-process and that the TCP cluster's
// workers run, so its samples per second, CPU per sample and allocation
// per sample are gated metrics, not by-products.
package engine

import (
	"fmt"
	"sync"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/nn"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// Config parameterizes a pipelined run.
type Config struct {
	// Plan distributes blocks over devices (sched.TRContiguous-shaped
	// plans give plain TR; sched.InternalRelaying gives IR; hybrid plans
	// give AHD behaviour).
	Plan sched.Plan
	// DPU enables decoupled parameter update: without it, a global
	// barrier delays every update until all devices finish their
	// backward pass (Fig. 3b); with it, devices update immediately and
	// start the next step (Fig. 3c).
	DPU bool
	// LR and Momentum configure each block's SGD optimizer.
	LR, Momentum float32
	// Buffer is the relay channel depth (pipeline depth); <= 0 means 2.
	Buffer int
	// Backend selects the tensor compute backend for every block replica
	// (e.g. tensor.Lookup("parallel")). nil keeps whatever the workbench
	// and the process default already use. All backends are bit-identical,
	// so this is purely a throughput knob — the equivalence guarantees
	// hold regardless.
	Backend tensor.Backend
	// Trace, when non-nil, records per-device span events of the run: one
	// obs track per plan device ("dev0", "dev1", ...), fed by the device
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
// It mutates the workbench's student parameters.
func RunSequential(w *distill.Workbench, batches []dataset.Batch, lr, momentum float32) Result {
	nb := w.NumBlocks()
	res := Result{Loss: make([][]float64, nb)}
	opts := make([]*nn.SGD, nb)
	for b := 0; b < nb; b++ {
		opts[b] = nn.NewSGD(lr, momentum, 0)
		res.Loss[b] = make([]float64, len(batches))
	}
	mem, done := borrowStepMemory(w.Pairs)
	defer done()
	for s, batch := range batches {
		recycle(mem.carry)
		x := batch.X
		for b := 0; b < nb; b++ {
			pair := w.Pairs[b]
			params := pair.Student.Params()
			nn.ZeroGrads(params)
			x, res.Loss[b][s] = mem.step(pair, x, nil)
			opts[b].Step(params)
		}
	}
	return res
}

// attachArena makes every block of pairs draw its tensors from ar; nil
// detaches.
func attachArena(pairs []distill.Pair, ar *tensor.Arena) {
	for _, p := range pairs {
		nn.ApplyArena(p.Teacher, ar)
		nn.ApplyArena(p.Student, ar)
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

// blockArenas and carryArenas lend every step loop its pair for the run
// and keep them for the life of the process (see tensor.ArenaCache): a
// worker restarting a session or an experiment sweep sizes them once. One
// cache per role: a carry arena never grows to a block's working set.
var blockArenas, carryArenas tensor.ArenaCache

// borrowStepMemory lends a loop its arenas and makes pairs draw from the
// block arena; done detaches pairs, which allocate normally again, and
// hands the arenas back.
func borrowStepMemory(pairs []distill.Pair) (mem stepMemory, done func()) {
	mem = stepMemory{block: blockArenas.Get(), carry: carryArenas.Get()}
	attachArena(pairs, mem.block)
	return mem, func() {
		attachArena(pairs, nil)
		blockArenas.Put(mem.block)
		carryArenas.Put(mem.carry)
	}
}

// step runs one block's distillation step on x and returns the teacher's
// output, valid until carry is next recycled, and the loss.
func (mem stepMemory) step(p distill.Pair, x *tensor.Tensor, tk *obs.Track) (*tensor.Tensor, float64) {
	recycle(mem.block)
	tOut, loss := distill.StepObserved(p, x, tk, mem.block)
	out := mem.carry.Get(tOut.Shape()...)
	out.CopyFrom(tOut)
	return out, loss
}

// poisonFreed, set by this package's tests only, fills every recycled
// buffer with NaN.
var poisonFreed bool

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

// groupRuntime is the shared state of one plan group.
type groupRuntime struct {
	sched.Group
	in  chan *tensor.Tensor // full-batch input activations
	out chan *tensor.Tensor // nil for the last group

	sync *barrier // intra-group phases (assembly, all-reduce)

	// members[j] holds member j's private replica of the group's pairs,
	// grads[j] its flattened gradient list (Member.GradTensors).
	members [][]distill.Pair
	opts    [][]*nn.SGD
	grads   [][]*tensor.Tensor

	// assembleMu latches the lazy allocation of assembled. It is
	// per-group state: independent groups — and independent concurrent
	// RunPipelined calls — must never contend on a shared lock.
	assembleMu sync.Mutex
	// assembled is the full-batch teacher output under construction.
	assembled *tensor.Tensor
	// assembledInput broadcasts the received input to group members.
	assembledInput *tensor.Tensor
}

// RunPipelined trains the workbench under the given plan with real
// concurrency. The workbench's own pairs are used by each group's member
// 0; additional group members train bit-identical replicas (their updates
// coincide, so member 0's weights are the result). It returns the loss
// trajectory; the workbench's student parameters hold the trained values.
func RunPipelined(w *distill.Workbench, batches []dataset.Batch, cfg Config) Result {
	nb := w.NumBlocks()
	if err := validatePlan(cfg.Plan, nb); err != nil {
		panic(err)
	}
	buffer := cfg.Buffer
	if buffer <= 0 {
		buffer = 2
	}
	steps := len(batches)
	nDev := 0
	for _, g := range cfg.Plan.Groups {
		nDev += g.Split()
	}

	// Build group runtimes and replicas.
	groups := make([]*groupRuntime, len(cfg.Plan.Groups))
	var prev *groupRuntime
	for gi, g := range cfg.Plan.Groups {
		gr := &groupRuntime{Group: g, sync: newBarrier(g.Split())}
		gr.members = make([][]distill.Pair, g.Split())
		gr.opts = make([][]*nn.SGD, g.Split())
		gr.grads = make([][]*tensor.Tensor, g.Split())
		for j := 0; j < g.Split(); j++ {
			src := w
			if j > 0 {
				src = w.Replica()
			}
			if cfg.Backend != nil {
				src.SetBackend(cfg.Backend)
			}
			pairs := make([]distill.Pair, len(g.Blocks))
			opts := make([]*nn.SGD, len(g.Blocks))
			for bi, b := range g.Blocks {
				pairs[bi] = src.Pairs[b]
				opts[bi] = nn.NewSGD(cfg.LR, cfg.Momentum, 0)
			}
			gr.members[j] = pairs
			gr.opts[j] = opts
			gr.grads[j] = Member{Pairs: pairs}.GradTensors()
		}
		if gi > 0 {
			gr.in = make(chan *tensor.Tensor, buffer)
			prev.out = gr.in
		}
		groups[gi] = gr
		prev = gr
	}

	losses := make([][][]float64, len(groups)) // [group][blockInGroup*member]...
	for gi, gr := range groups {
		losses[gi] = make([][]float64, len(gr.Blocks)*gr.Split())
		for i := range losses[gi] {
			losses[gi][i] = make([]float64, steps)
		}
	}

	var stepSync *barrier
	if !cfg.DPU {
		stepSync = newBarrier(nDev)
	}

	var wg sync.WaitGroup
	for gi, gr := range groups {
		for j := 0; j < gr.Split(); j++ {
			// In device order: a device meets the arenas it sized last run.
			mem, done := borrowStepMemory(gr.members[j])
			wg.Add(1)
			go func(gi int, gr *groupRuntime, j int) {
				defer wg.Done()
				defer done()
				m := Member{Group: gi, Rank: j, GroupSize: gr.Split(),
					Pairs: gr.members[j], Opts: gr.opts[j]}
				if cfg.Trace != nil {
					m.Trace = cfg.Trace.NewTrack(fmt.Sprintf("dev%d", gr.Devices[j]))
				}
				link := &memberLink{gr: gr, j: j, batches: batches,
					stepSync: stepSync, losses: losses[gi]}
				runMember(m, 0, steps, link, mem)
			}(gi, gr, j)
		}
	}
	wg.Wait()

	// Assemble the loss trajectory per block (mean over members).
	res := Result{Loss: make([][]float64, nb)}
	for gi, gr := range groups {
		merged := MergeGroupLosses(losses[gi], len(gr.Blocks), gr.Split(), steps)
		for bi, b := range gr.Blocks {
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

// assembleShard writes a member's teacher-output shard into the group's
// full-batch assembly buffer. Members write disjoint ranges; the
// following barrier publishes the writes.
func (gr *groupRuntime) assembleShard(shard *tensor.Tensor, j int) {
	k := gr.Split()
	gr.assemblyOnce(shard, k)
	per := shard.Numel()
	copy(gr.assembled.Data()[j*per:(j+1)*per], shard.Data())
}

// assemblyOnce lazily allocates the assembly buffer for this step.
func (gr *groupRuntime) assemblyOnce(shard *tensor.Tensor, k int) {
	gr.assembleMu.Lock()
	defer gr.assembleMu.Unlock()
	if gr.assembled == nil {
		shape := append([]int(nil), shard.Shape()...)
		shape[0] *= k
		gr.assembled = tensor.New(shape...)
	}
}

// averageGroupGradients implements a deterministic all-reduce: every
// member sums all members' gradients in rank order into a private buffer,
// scales by 1/k, and installs the result into its own gradient tensors
// after a barrier. All replicas therefore apply bit-identical updates.
func averageGroupGradients(gr *groupRuntime, j int, scratch *tensor.Arena) {
	inv := 1 / float32(gr.Split())
	// Phase 1: compute averaged gradients into private buffers.
	avg := make([]*tensor.Tensor, len(gr.grads[j]))
	for pi := range avg {
		sum := scratch.GetZeroed(gr.grads[j][pi].Shape()...)
		for _, grads := range gr.grads {
			tensor.AddInto(sum, grads[pi])
		}
		tensor.ScaleInPlace(sum, inv)
		avg[pi] = sum
	}
	gr.sync.Await() // everyone done reading raw gradients
	// Phase 2: install.
	for pi, g := range gr.grads[j] {
		g.CopyFrom(avg[pi])
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
	out := scratch.Get(append([]int{per}, shape[1:]...)...)
	copy(out.Data(), full.Data()[j*per*elems:(j+1)*per*elems])
	return out
}

func validatePlan(p sched.Plan, nBlocks int) error {
	nDev := 0
	for _, g := range p.Groups {
		nDev += g.Split()
	}
	return p.Validate(nDev, nBlocks)
}
