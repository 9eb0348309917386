package engine

import (
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/nn"
	"pipebd/internal/obs"
	"pipebd/internal/tensor"
)

// DeviceLink is the communication seam of the device loop: everything a
// pipeline device needs from the outside world during training. The
// in-process implementation (memberLink) wires it to channels, barriers,
// and shared memory; the cluster package implements it over a wire
// transport so the very same loop runs inside a worker process.
//
// Implementations must preserve the engine's determinism contract:
// RecvInput delivers the step's full-batch input exactly as the previous
// stage produced it, and AllReduce leaves every member's gradient tensors
// holding the rank-ordered mean (sum over member ranks 0..k-1, then scale
// by 1/k) so all replicas apply bit-identical updates.
type DeviceLink interface {
	// RecvInput returns the full-batch input of the given step: the data
	// loader's batch for the first group, the relayed teacher activation
	// otherwise. The device loop only reads the returned tensor.
	RecvInput(step int) *tensor.Tensor
	// SendOutput relays the device's boundary activation for the step
	// toward the next group (the member's shard when the group is split;
	// links assemble shards in rank order). No-op for the last group.
	// out belongs to the device loop's step memory and is valid only
	// during the call: a link that delivers it later encodes or copies it
	// before returning.
	SendOutput(step int, out *tensor.Tensor)
	// AllReduce replaces each gradient tensor's contents with the
	// deterministic intra-group mean. Only called when the group has more
	// than one member. grads is the member's flattened gradient list
	// (blocks in group order, params in declaration order); scratch is
	// the device loop's arena, for temporaries that die with the step.
	AllReduce(step int, grads []*tensor.Tensor, scratch *tensor.Arena)
	// ReportLosses publishes the member's per-block losses for the step.
	// The slice is reused between steps: implementations must copy.
	ReportLosses(step int, losses []float64)
	// StepBarrier delays the parameter update until every device in the
	// run finished the step's backward pass. No-op when decoupled
	// parameter update (DPU) is enabled.
	StepBarrier(step int)
}

// StepFinisher is an optional DeviceLink extension: when a link
// implements it, RunMember calls FinishStep after a step's parameter
// updates are installed — the point where the device's state is exactly
// "trained through step s". The cluster link uses it to emit recovery
// snapshots; the in-process link has no need for it.
type StepFinisher interface {
	FinishStep(step int)
}

// Member describes one device's role in one stage: its rank among the
// stage's members, and its private block replicas with their optimizers.
type Member struct {
	// Group is the stage's index in its relay chain — a plan's group
	// index; 0 is a stage that reads the loader's batch.
	Group     int
	Rank      int // rank j within the stage
	GroupSize int // number of members k sharing the stage's blocks
	Pairs     []distill.Pair
	Opts      []*nn.SGD
	// Prefix holds the frozen teacher blocks the member runs on its input
	// before Pairs without training anything: the redundant teacher
	// execution of a DP or LS stage. Teacher relaying has none.
	Prefix []nn.Layer

	// Trace, when non-nil, receives per-step span events from the device
	// loop (phase timings, communication waits, barrier time). A nil or
	// disabled track costs one branch per phase — see internal/obs.
	Trace *obs.Track
}

// GradTensors returns the member's flattened gradient list in the order
// AllReduce expects: blocks in group order, parameters in declaration
// order. The tensors are stable across steps (gradients are zeroed in
// place), so the slice is collected once per run.
func (m Member) GradTensors() []*tensor.Tensor {
	var grads []*tensor.Tensor
	for _, p := range m.Pairs {
		for _, prm := range p.Student.Params() {
			grads = append(grads, prm.Grad)
		}
	}
	return grads
}

// layers returns every block the member runs, for attaching step memory.
func (m Member) layers() []nn.Layer {
	ls := append([]nn.Layer(nil), m.Prefix...)
	for _, p := range m.Pairs {
		ls = append(ls, p.Teacher, p.Student)
	}
	return ls
}

// RunMember drives one device's step loop — Algorithm 1 of the paper —
// for the given number of steps, with all communication routed through
// link. It is the single device runtime shared by the in-process engine
// (Run, for any program) and the multi-process cluster worker.
func RunMember(m Member, steps int, link DeviceLink) {
	RunMemberFrom(m, 0, steps, link)
}

// RunMemberFrom runs the device loop for steps [start, steps). It exists
// for replay-based recovery: a device restored from a snapshot taken
// after step start-1 resumes here and, fed the same inputs, reproduces
// the remaining trajectory bit-identically.
func RunMemberFrom(m Member, start, steps int, link DeviceLink) {
	mem, done := borrowStepMemory(m.layers())
	defer done()
	runDevice([][]*memberRun{{newMemberRun(m, link)}}, start, steps, mem)
}

// runDevice is the device loop: phase after phase, each a pass over
// steps [start, steps) in which the device takes one training step in
// every stage it is a member of, in stage order. Every step reuses the
// same shapes, so everything the device computes — batch shard, layer
// outputs, backward caches, gradients, all-reduce temporaries — cycles
// through mem: steady-state steps allocate only what the links bring in.
func runDevice(phases [][]*memberRun, start, steps int, mem stepMemory) {
	for _, stages := range phases {
		for s := start; s < steps; s++ {
			for _, r := range stages {
				r.step(s, mem)
			}
		}
	}
}

// memberRun is a Member bound to its link, with what its steps reuse:
// built once per run, so playing a program costs a step nothing.
type memberRun struct {
	Member
	link     DeviceLink
	finisher StepFinisher // nil when link is none
	losses   []float64
	grads    []*tensor.Tensor // nil unless the stage is split
	// A loader-fed stage's receive is the measured data-loading time; a
	// relayed stage waits on an activation, which is communication.
	recvCat  obs.Category
	recvName string
}

func newMemberRun(m Member, link DeviceLink) *memberRun {
	r := &memberRun{Member: m, link: link, losses: make([]float64, len(m.Pairs)),
		recvCat: obs.CatLoad, recvName: "recv_input"}
	r.finisher, _ = link.(StepFinisher)
	if m.GroupSize > 1 {
		r.grads = m.GradTensors()
	}
	if m.Group > 0 {
		r.recvCat, r.recvName = obs.CatComm, "recv_act"
	}
	return r
}

// step takes the member's training step s.
func (m *memberRun) step(s int, mem stepMemory) {
	tk, link := m.Trace, m.link
	recycle(mem.carry)
	// Receive the step's input: the data loader's batch, or the relayed
	// teacher activation (lines 8-9).
	r := tk.Begin(m.recvCat, m.recvName)
	full := link.RecvInput(s)
	r.End()
	x := shardOf(full, m.Rank, m.GroupSize, mem.carry)
	for _, teacher := range m.Prefix {
		x = mem.forward(teacher, x, tk)
	}
	for bi, pair := range m.Pairs {
		nn.ZeroGrads(pair.Student.Params())
		// Teacher forward (line 10), student forward/backward against
		// the teacher activation (lines 12-13).
		x, m.losses[bi] = mem.step(pair, x, tk)
	}

	// Relay the boundary activation to the next device (line 11). The
	// send overlaps with the remaining work of other members thanks to
	// the link's buffering.
	r = tk.Begin(obs.CatComm, "send_output")
	link.SendOutput(s, x)
	r.End()

	// Intra-stage gradient sharing when the block is split along the
	// batch dimension (line 14).
	if m.GroupSize > 1 {
		r = tk.Begin(obs.CatAllReduce, "allreduce")
		link.AllReduce(s, m.grads, mem.block)
		r.End()
	}

	link.ReportLosses(s, m.losses)

	// Decoupled parameter update (lines 15-16): update immediately,
	// or wait for every device when DPU is disabled.
	r = tk.Begin(obs.CatWait, "barrier_wait")
	link.StepBarrier(s)
	r.End()
	r = tk.Begin(obs.CatUpdate, "sgd_update")
	for bi, pair := range m.Pairs {
		m.Opts[bi].Step(pair.Student.Params())
	}
	r.End()
	if m.finisher != nil {
		m.finisher.FinishStep(s)
	}
}

// memberLink is the in-process DeviceLink: relay over channels, assembly
// and all-reduce through the stage's shared memory, barriers for
// intra-stage phases.
type memberLink struct {
	st       *stageRuntime
	j        int
	batches  []dataset.Batch
	stepSync *barrier // nil unless updates wait on the per-step barrier
}

func (l *memberLink) RecvInput(step int) *tensor.Tensor {
	if l.st.in == nil {
		return l.batches[step].X
	}
	if l.j == 0 {
		full := <-l.st.in
		l.st.assembledInput = full
		l.st.sync.Await()
		return full
	}
	l.st.sync.Await()
	return l.st.assembledInput
}

func (l *memberLink) SendOutput(step int, out *tensor.Tensor) {
	st := l.st
	if st.out == nil {
		return
	}
	if st.Split() == 1 {
		// The consumer may be up to the relay depth behind, and out dies
		// at this device's next step: hand over a copy the arena does not
		// own.
		st.out <- out.Clone()
		return
	}
	st.assembleShard(out, l.j)
	st.sync.Await()
	if l.j == 0 {
		st.out <- st.assembled
		st.assembled = nil
	}
}

func (l *memberLink) AllReduce(step int, grads []*tensor.Tensor, scratch *tensor.Arena) {
	l.st.sync.Await() // all members finished backward
	averageGroupGradients(l.st, l.j, scratch)
	l.st.sync.Await() // all members consumed others' gradients
}

func (l *memberLink) ReportLosses(step int, losses []float64) {
	nb := len(l.st.Blocks)
	for bi, v := range losses {
		l.st.losses[l.j*nb+bi][step] = v
	}
}

func (l *memberLink) StepBarrier(step int) {
	if l.stepSync != nil {
		l.stepSync.Await()
	}
}

var _ DeviceLink = (*memberLink)(nil)
