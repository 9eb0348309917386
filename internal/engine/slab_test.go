package engine

import (
	"testing"

	"pipebd/internal/distill"
	"pipebd/internal/nn"
	"pipebd/internal/tensor"
)

// TestStudentSlabLayout: every student block of every workbench family,
// and of a replica of it, keeps its training state in three slabs, and
// each parameter's Value, Grad and Velocity are views that tile its slab
// exactly, end to end in Params() order. A frozen teacher carries values
// only: no gradient, no momentum.
func TestStudentSlabLayout(t *testing.T) {
	for _, c := range []struct {
		name string
		w    *distill.Workbench
	}{
		{"conv", distill.NewTinyWorkbench(distill.DefaultTinyConfig())},
		{"supernet", distill.NewTinySupernetWorkbench(distill.DefaultSupernetConfig())},
		{"transformer", distill.NewTransformerWorkbench(distill.DefaultTransformerConfig())},
	} {
		for _, wb := range []struct {
			name string
			w    *distill.Workbench
		}{{c.name, c.w}, {c.name + " replica", c.w.Replica()}} {
			for b, pair := range wb.w.Pairs {
				params := pair.Student.Params()
				s := pair.Slabs
				for _, slab := range []struct {
					name  string
					slab  *tensor.Tensor
					views func(p *nn.Param) *tensor.Tensor
				}{
					{"value", s.Values, func(p *nn.Param) *tensor.Tensor { return p.Value }},
					{"gradient", s.Grads, func(p *nn.Param) *tensor.Tensor { return p.Grad }},
					{"velocity", s.Velocity, func(p *nn.Param) *tensor.Tensor { return p.Velocity }},
				} {
					if err := tiles(slab.slab, params, slab.views); err != "" {
						t.Errorf("%s block %d: the %s views do not tile their slab: %s", wb.name, b, slab.name, err)
					}
				}
				for _, p := range pair.Teacher.Params() {
					if p.Grad != nil || p.Velocity != nil {
						t.Errorf("%s block %d: teacher parameter %s carries a gradient or a velocity", wb.name, b, p.Name)
					}
				}
			}
		}
	}
}

// tiles reports how view(p) over params fails to cover slab exactly, in
// order and without a gap, or returns "".
func tiles(slab *tensor.Tensor, params []*nn.Param, view func(p *nn.Param) *tensor.Tensor) string {
	if slab == nil || slab.NDim() != 1 {
		return "the slab is not a flat tensor"
	}
	data, off := slab.Data(), 0
	for i, p := range params {
		v := view(p)
		if v == nil {
			return p.Name + " has no view"
		}
		n := v.Numel()
		if !v.SameShape(p.Value) || off+n > len(data) || &v.Data()[0] != &data[off] || cap(v.Data()) != n {
			return "parameter " + p.Name + " is not the slab's next span"
		}
		off += n
		if i == len(params)-1 && off != len(data) {
			return "the views leave the slab's tail uncovered"
		}
	}
	return ""
}

// TestRunStartsFromZeroMomentum: momentum lives in a block's velocity
// slab, so a run must clear it. A workbench trained once and then trained
// again matches, bit for bit, a replica of it (built with zero momentum)
// trained the same way: sequentially, and as a plan whose split group
// puts the workbench's own blocks on rank 0 beside a fresh replica on
// rank 1, where leftover momentum would part the two ranks.
func TestRunStartsFromZeroMomentum(t *testing.T) {
	first, second := tinyBatches(t, 3, 8), tinyBatches(t, 4, 8)[1:]
	for _, c := range []struct {
		name string
		run  func(w *distill.Workbench) Result
	}{
		{"sequential", func(w *distill.Workbench) Result { return RunSequential(w, second, 0.05, 0.9) }},
		{"hybrid", func(w *distill.Workbench) Result {
			return RunPipelined(w, second, Config{Plan: planHybrid, DPU: true, LR: 0.05, Momentum: 0.9})
		}},
	} {
		w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
		RunSequential(w, first, 0.05, 0.9)
		fresh := w.Replica()
		want := c.run(fresh)
		if got := c.run(w); !lossesEqual(want, got) || !paramsEqual(t, fresh, w, true, 0) {
			t.Errorf("%s: a second run of a trained workbench differs from a fresh replica's: momentum carried over", c.name)
		}
	}
}
