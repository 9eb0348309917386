// Package distill defines blockwise knowledge distillation at the numeric
// level: teacher/student block pairs, the per-block distillation step
// (teacher forward, student forward/backward against the teacher's output
// activation, Fig. 1 of the paper), and reproducible workbenches of small
// real networks used by the concurrent engine and its equivalence
// experiments.
//
// The numeric path exists to validate the paper's central mathematical
// claim — Pipe-BD "achieves significant acceleration without modifying
// the mathematical formulation of blockwise distillation" — with actual
// float32 training: the pipelined engine must produce bit-identical
// student weights to a sequential reference.
package distill

import (
	"fmt"
	"math/rand"

	"pipebd/internal/nn"
	"pipebd/internal/obs"
	"pipebd/internal/tensor"
)

// LossFunc computes a distillation loss between a student block output
// and the frozen teacher's output, returning the loss and the gradient
// with respect to the student output, taken from ar (nil: plain
// allocation). Both MSE (the paper's L(Δoutput)) and KL-with-temperature
// (logit distillation) have this shape.
type LossFunc func(ar *tensor.Arena, studentOut, teacherOut *tensor.Tensor) (float64, *tensor.Tensor)

// KLLoss returns the temperature-scaled KL-divergence distillation loss
// for a pair's logits: T²·KL(softmax(teacher/T) ‖ softmax(student/T)).
func KLLoss(temp float64) LossFunc {
	return func(ar *tensor.Arena, studentOut, teacherOut *tensor.Tensor) (float64, *tensor.Tensor) {
		return nn.KLDivLoss(ar, studentOut, teacherOut, temp)
	}
}

// Pair is one distillation unit: a frozen teacher block and the student
// block trained to mimic it. Both consume the same input activation and
// must produce outputs of identical shape. Only the student trains, so
// only it has training state: its Slabs.
type Pair struct {
	Teacher nn.Layer
	Student nn.Layer
	// Loss selects the per-block distillation loss; nil means MSE on the
	// output activations, the pre-transformer default.
	Loss LossFunc
	// Slabs is nn.Pack of Student.Params(), made once by newPair: a run
	// zeroes, reduces and copies a block's state a slab at a time.
	Slabs nn.Slabs
}

// newPair pairs teacher with a complete student and packs the student's
// parameters; every workbench constructor builds its pairs here.
func newPair(teacher, student nn.Layer, loss LossFunc) Pair {
	return Pair{Teacher: teacher, Student: student, Loss: loss, Slabs: nn.Pack(student.Params())}
}

// lossOf resolves a pair's loss function.
func (p Pair) lossOf() LossFunc {
	if p.Loss != nil {
		return p.Loss
	}
	return nn.MSELoss
}

// Step performs one distillation step of a pair: runs the teacher block
// (inference mode), the student block (training mode), computes the
// pair's distillation loss between their outputs (MSE — the paper's
// L(Δoutput) — unless the pair selects another), and backpropagates
// through the student, accumulating parameter gradients. It returns the
// teacher's output activation (the next block's input) and the loss. The
// caller owns zeroing gradients and applying the optimizer step, so the
// engine can schedule updates per Pipe-BD's decoupled parameter update.
func Step(p Pair, x *tensor.Tensor) (teacherOut *tensor.Tensor, loss float64) {
	return StepObserved(p, x, nil, nil)
}

// StepObserved is Step with per-phase span tracing: the teacher forward,
// the student forward (including the loss/gradient computation against
// the teacher's output), and the student backward each get their own
// span on tk. A nil (or disabled) track makes it exactly Step. ar is the
// arena the caller attached to the pair's blocks (nn.ApplyArena), or nil:
// the loss gradient comes from it too.
func StepObserved(p Pair, x *tensor.Tensor, tk *obs.Track, ar *tensor.Arena) (teacherOut *tensor.Tensor, loss float64) {
	r := tk.Begin(obs.CatTeacherFwd, "teacher_fwd")
	teacherOut = p.Teacher.Forward(x, false)
	r.End()
	r = tk.Begin(obs.CatStudentFwd, "student_fwd")
	studentOut := p.Student.Forward(x, true)
	loss, grad := p.lossOf()(ar, studentOut, teacherOut)
	r.End()
	r = tk.Begin(obs.CatStudentBwd, "student_bwd")
	p.Student.Backward(grad)
	r.End()
	return teacherOut, loss
}

// Workbench is a reproducible set of block pairs: it remembers its
// constructor so fresh, bit-identical replicas can be created for
// sequential references and data-parallel group members.
type Workbench struct {
	Pairs []Pair

	build func() []Pair
}

// NewWorkbench wraps a deterministic pair constructor. build must return
// freshly initialized pairs with identical weights on every call.
func NewWorkbench(build func() []Pair) *Workbench {
	return &Workbench{Pairs: build(), build: build}
}

// Replica returns an independent workbench holding w's current weights:
// built afresh, so it shares no tensor with w, then given every teacher
// parameter and student value slab of w. A replica of a workbench whose
// weights moved off its construction (trained, or loaded) starts where w
// stands, with zero momentum.
func (w *Workbench) Replica() *Workbench {
	r := NewWorkbench(w.build)
	for b, p := range w.Pairs {
		src := p.Teacher.Params()
		for i, t := range r.Pairs[b].Teacher.Params() {
			t.Value.CopyFrom(src[i].Value)
		}
		r.Pairs[b].Slabs.Values.CopyFrom(p.Slabs.Values)
	}
	return r
}

// SetBackend routes every teacher and student block's compute through be.
// Backends are bit-identical by contract, so this changes throughput,
// never the training trajectory.
func (w *Workbench) SetBackend(be tensor.Backend) {
	for _, p := range w.Pairs {
		nn.ApplyBackend(p.Teacher, be)
		nn.ApplyBackend(p.Student, be)
	}
}

// NumBlocks returns the number of block pairs.
func (w *Workbench) NumBlocks() int { return len(w.Pairs) }

// TeacherForward runs the full frozen teacher chain.
func (w *Workbench) TeacherForward(x *tensor.Tensor) *tensor.Tensor {
	for _, p := range w.Pairs {
		x = p.Teacher.Forward(x, false)
	}
	return x
}

// StudentForward runs the full student chain in evaluation mode.
func (w *Workbench) StudentForward(x *tensor.Tensor) *tensor.Tensor {
	for _, p := range w.Pairs {
		x = p.Student.Forward(x, false)
	}
	return x
}

// StudentParams returns the trainable parameters of one student block.
func (w *Workbench) StudentParams(block int) []*nn.Param {
	return w.Pairs[block].Student.Params()
}

// TinyConfig sizes the miniature workbench used by tests and examples: a
// scaled-down analogue of the paper's compression workload (convolutional
// teacher, depthwise-separable student).
type TinyConfig struct {
	Seed     int64
	Blocks   int
	Channels int // channel width of every block boundary
	Height   int
	Width    int
	Classes  int // classifier width of the final block (0: no classifier)
}

// DefaultTinyConfig returns the configuration the equivalence tests use.
func DefaultTinyConfig() TinyConfig {
	return TinyConfig{Seed: 42, Blocks: 4, Channels: 6, Height: 8, Width: 8, Classes: 0}
}

// NewTinyWorkbench builds a reproducible miniature distillation workload:
// each teacher block is conv3x3-BN-ReLU, each student block a
// depthwise-separable replacement (DW3x3 + PW1x1 + ReLU), mirroring the
// paper's VGG→DS-Conv compression setup at laptop scale. When
// cfg.Classes > 0 the final pair ends in a classifier head so end-to-end
// accuracy can be measured.
func NewTinyWorkbench(cfg TinyConfig) *Workbench {
	if cfg.Blocks <= 0 || cfg.Channels <= 0 {
		panic(fmt.Sprintf("distill: invalid tiny config %+v", cfg))
	}
	build := func() []Pair {
		rng := rand.New(rand.NewSource(cfg.Seed))
		pairs := make([]Pair, cfg.Blocks)
		for b := 0; b < cfg.Blocks; b++ {
			inC := cfg.Channels
			if b == 0 {
				inC = 3
			}
			teacher := nn.NewSequential(
				nn.NewConv2d(rng, inC, cfg.Channels, 3, 1, 1, false),
				nn.NewBatchNorm2d(cfg.Channels),
				nn.NewReLU(),
			)
			student := nn.NewSequential(
				nn.NewDWConv2d(rng, inC, 3, 1, 1, false),
				nn.NewConv2d(rng, inC, cfg.Channels, 1, 1, 0, true),
				nn.NewReLU(),
			)
			if cfg.Classes > 0 && b == cfg.Blocks-1 {
				tail := func(r *rand.Rand) []nn.Layer {
					return []nn.Layer{
						nn.NewGlobalAvgPool2d(),
						nn.NewFlatten(),
						nn.NewLinear(r, cfg.Channels, cfg.Classes, true),
					}
				}
				teacher.Layers = append(teacher.Layers, tail(rng)...)
				student.Layers = append(student.Layers, tail(rng)...)
			}
			pairs[b] = newPair(teacher, student, nil)
		}
		warmTeachers(rng, pairs, cfg.Height, cfg.Width)
		return pairs
	}
	return NewWorkbench(build)
}

// warmArenas lends warmTeachers its memory, so a workbench built again —
// a replica, a worker's next session — runs its warm-up in the buffers
// the last build sized (see tensor.ArenaCache).
var warmArenas tensor.ArenaCache

// warmTeachers freezes the teachers' batch norms with plausible running
// statistics, so that inference-mode teacher outputs are non-degenerate:
// on a batch of 8 images drawn from rng, each teacher runs one training
// forward, which updates them, then an inference forward whose output
// feeds the next teacher. The forwards draw from an arena borrowed for
// the call; the teachers allocate normally again afterwards.
func warmTeachers(rng *rand.Rand, pairs []Pair, height, width int) {
	ar := warmArenas.Get()
	defer warmArenas.Put(ar)
	// A fresh arena is at generation 0, which a detached layer reads too:
	// one Reset makes a Backward after this call find its cache stale.
	ar.Reset()
	x := ar.Get(8, 3, height, width)
	tensor.RandInto(x, rng, -1, 1)
	for _, p := range pairs {
		nn.ApplyArena(p.Teacher, ar)
		_ = p.Teacher.Forward(x, true)
		x = p.Teacher.Forward(x, false)
		nn.ApplyArena(p.Teacher, nil)
	}
}
