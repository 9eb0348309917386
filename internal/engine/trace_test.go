package engine

import (
	"testing"

	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
)

// TestRunPipelinedTracing proves the observability layer's two contracts
// on the in-process engine: an enabled tracer captures every expected
// phase on every device track, and tracing does not perturb the training
// trajectory (losses stay bit-identical to an untraced run).
func TestRunPipelinedTracing(t *testing.T) {
	tiny := distill.DefaultTinyConfig()
	const steps, batch = 3, 8
	data := dataset.NewRandom(11, steps*batch, 3, tiny.Height, tiny.Width, 4)
	batches := data.Batches(batch)
	plan := sched.Plan{Name: "hybrid", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2, 3}},
	}}
	cfg := Config{Plan: plan, DPU: false, LR: 0.05, Momentum: 0.9}

	ref := RunPipelined(distill.NewTinyWorkbench(tiny), batches, cfg)

	traced := cfg
	traced.Trace = obs.NewTracer(true)
	got := RunPipelined(distill.NewTinyWorkbench(tiny), batches, traced)

	for b := range ref.Loss {
		for s := range ref.Loss[b] {
			if ref.Loss[b][s] != got.Loss[b][s] {
				t.Fatalf("tracing changed the trajectory: block %d step %d: %v != %v",
					b, s, ref.Loss[b][s], got.Loss[b][s])
			}
		}
	}

	tracks := traced.Trace.Tracks()
	if len(tracks) != 3 {
		t.Fatalf("got %d tracks, want 3 (one per device)", len(tracks))
	}
	names := map[string]bool{}
	for _, tk := range tracks {
		names[tk.Name()] = true
		spans := tk.Drain()
		if len(spans) == 0 {
			t.Fatalf("track %s recorded no spans", tk.Name())
		}
		seen := map[string]bool{}
		for _, s := range spans {
			seen[s.Name] = true
		}
		want := []string{"teacher_fwd", "student_fwd", "student_bwd", "sgd_update", "barrier_wait"}
		if tk.Name() == "dev0" || tk.Name() == "dev1" {
			want = append(want, "recv_input", "send_output", "allreduce")
		} else {
			want = append(want, "recv_act")
		}
		for _, w := range want {
			if !seen[w] {
				t.Fatalf("track %s missing span %q (saw %v)", tk.Name(), w, seen)
			}
		}
	}
	for _, d := range []string{"dev0", "dev1", "dev2"} {
		if !names[d] {
			t.Fatalf("missing device track %s (have %v)", d, names)
		}
	}
}
