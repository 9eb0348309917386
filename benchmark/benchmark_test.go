package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"pipebd/internal/tensor"
)

// benchmarkSpec mirrors BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode pins BENCHMARK.json to the tables the program
// prints from: same names, units, directions and bounds, in order.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		checkName(w.name)
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program (or their why differs)", i, got.Name, w.name)
		}
	}
	compare := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the program %d", len(got), kind, len(want))
		}
		for i, d := range want {
			checkName(d.name)
			if !unit.MatchString(d.unit) {
				t.Errorf("%s: unit %q", d.name, d.unit)
			}
			if d.better != "higher" && d.better != "lower" {
				t.Errorf("%s: better = %q", d.name, d.better)
			}
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	var setup *metricDef
	for i := range endToEnd {
		d := &endToEnd[i]
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		if d.name == "setup_s" {
			setup = d
		}
	}
	if setup == nil || setup.unit != "s" || setup.better != "lower" {
		t.Fatalf("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, d := range endToEnd {
		if d.bound > setup.bound {
			t.Errorf("%s has a larger bound than setup_s", d.name)
		}
	}
}

// quickRun runs all four workloads with two-step passes.
func quickRun(t *testing.T, trace bool) *report {
	t.Helper()
	rep, err := run(options{seed: 3, quick: true, trace: trace, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Comparable {
		t.Error("a -quick report must be marked non-comparable")
	}
	if len(rep.Workloads) != len(workloads()) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloads()))
	}
	return rep
}

// TestQuickEndToEnd: every end-to-end metric appears, with its unit and
// a non-zero value, for every workload, and every pass passes its check.
func TestQuickEndToEnd(t *testing.T) {
	for _, w := range quickRun(t, false).Workloads {
		if !w.Correct || w.Failed != 0 || w.Attempted < 2 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, w.Correct, w.Attempted, w.Failed, w.Failures)
		}
		if len(w.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(w.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			m, ok := w.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: %s = %+v (present %v)", w.Name, d.name, m, ok)
			}
		}
	}
}

// TestQuickPerLayer: a traced run reports every per-layer metric for
// every workload, and each workload stresses the layers it was chosen
// for and leaves the others idle.
func TestQuickPerLayer(t *testing.T) {
	for _, w := range quickRun(t, true).Workloads {
		if !w.Correct || w.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d %v", w.Name, w.Correct, w.Failed, w.Failures)
		}
		if len(w.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(w.Metrics), len(perLayer))
		}
		v := func(name string) float64 {
			m, ok := w.Metrics[name]
			if !ok {
				t.Errorf("%s: %s missing", w.Name, name)
			}
			return m.Value
		}
		for _, d := range perLayer {
			v(d.name)
		}
		positive := func(names ...string) {
			for _, n := range names {
				if !(v(n) > 0) {
					t.Errorf("%s: %s = %v, want > 0", w.Name, n, v(n))
				}
			}
		}
		zero := func(names ...string) {
			for _, n := range names {
				if v(n) != 0 {
					t.Errorf("%s: %s = %v, want 0", w.Name, n, v(n))
				}
			}
		}
		positive("nn.teacher_fwd_ms_per_step", "nn.self_ms_per_step", "tensor.gflop_per_step",
			"distill.block_step_ms_max", "engine.seq_samples_per_s", "benchmark.traced_passes")
		if got := v("distill.teacher_fwd_per_step"); got != 4 {
			t.Errorf("%s: %v teacher forwards per step, want 4 (no redundant teacher work)", w.Name, got)
		}
		switch w.Name {
		case "conv_inproc":
			positive("tensor.conv_gemm_ms_per_step", "engine.allreduce_ms_per_step", "engine.speedup_vs_dp_ref")
			zero("transport.net_bytes_per_sample", "wire.encode_tensor_us", "transport.send_ms_per_step",
				"ledger.append_us", "cluster.session_ms", "tensor.batch_gemm_ms_per_step")
		case "xfmr_inproc":
			positive("tensor.batch_gemm_ms_per_step", "tensor.gemm_ms_per_step", "engine.relay_wait_ms_per_step")
			zero("transport.net_bytes_per_sample", "engine.allreduce_ms_per_step", "tensor.conv_gemm_ms_per_step")
		case "conv_ring_tcp":
			positive("transport.peer_bytes_per_step", "cluster.allreduce_ms_per_step", "wire.encode_tensor_us",
				"transport.tcp_rtt_us", "cluster.vs_inproc_ratio")
			zero("ledger.append_us", "cluster.ledger_append_ms_per_step", "cluster.snapshot_ms_per_step")
			if c, p := v("transport.coord_bytes_per_step"), v("transport.peer_bytes_per_step"); c > 0.05*p {
				t.Errorf("ring coordinator moves %v bytes/step against %v between peers, want under 5%%", c, p)
			}
			if v("tensor.skinny_call_share") != 1 {
				t.Errorf("ring GEMMs should all be skinny, share = %v", v("tensor.skinny_call_share"))
			}
		case "conv_hub_durable":
			positive("transport.coord_bytes_per_step", "cluster.ledger_append_ms_per_step",
				"cluster.snapshot_ms_per_step", "cluster.barrier_wait_ms_per_step",
				"ledger.append_us", "ledger.bytes_per_step", "ledger.open_replay_ms", "ledger.compact_ms")
			zero("transport.peer_bytes_per_step", "cluster.ack_wait_ms_per_step")
		}
	}
}

// TestWrappedRunBitIdentical: a pass with every seam wrapped trains the
// same bits as an unwrapped one, in-process and over the cluster, and
// the wrappers record parent-linked spans while it does.
func TestWrappedRunBitIdentical(t *testing.T) {
	all := workloads()
	for i := range all {
		w := &all[i]
		if w.name != "conv_inproc" && w.name != "conv_ring_tcp" {
			continue
		}
		w.seed, w.steps = 5, 3
		run := func(o passOpts) outcome {
			o.workDir = t.TempDir()
			rig, err := w.setup(o)
			if err != nil {
				t.Fatal(err)
			}
			defer rig.teardown()
			res, err := guarded(rig.run)
			if err != nil {
				t.Fatal(err)
			}
			return capture(rig.wb, res)
		}
		rec := newRecorder()
		plain, wrapped := run(passOpts{}), run(passOpts{rec: rec, pass: 1})
		if err := plain.differs(wrapped, 0); err != nil {
			t.Errorf("%s: wrapped run differs from unwrapped: %v", w.name, err)
		}
		kernels := rec.total(func(_ string, s *span) bool { return s.layer == "tensor" })
		if kernels.count == 0 || kernels.flops == 0 {
			t.Errorf("%s: the Backend wrapper recorded nothing", w.name)
		}
		if w.topology == "" {
			layers := rec.total(func(_ string, s *span) bool { return s.layer == "nn" })
			children := rec.total(func(_ string, s *span) bool { return s.layer == "tensor" && s.parent >= 0 })
			if layers.count == 0 || children.count != kernels.count {
				t.Errorf("%s: %d layer spans, %d of %d kernels have a parent", w.name, layers.count, children.count, kernels.count)
			}
			if layers.selfNs >= layers.durNs {
				t.Errorf("%s: layer self time %v is not below its duration %v", w.name, layers.selfNs, layers.durNs)
			}
		} else if rec.total(func(_ string, s *span) bool { return s.layer == "transport" }).count == 0 {
			t.Errorf("%s: the Network wrapper recorded nothing", w.name)
		}
		path := t.TempDir() + "/trace.json"
		if err := writeChromeTrace(path, []*harness{{w: w, rec: rec}}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: Chrome trace does not decode: %v", w.name, err)
		}
	}
}

// TestPerturbedWeightIsAFailedPass: one wrong bit in one weight makes
// the pass a failure and leaves no timing sample behind.
func TestPerturbedWeightIsAFailedPass(t *testing.T) {
	w := &workloads()[0]
	w.seed, w.steps = 9, 2
	h := &harness{w: w}
	var err error
	if h.seq, h.exact, err = oracles(w, w.steps); err != nil {
		t.Fatal(err)
	}
	h.attempted = 2
	if !h.record(sample{CalS: 1}, h.exact, nil) || len(h.timed) != 1 || h.failed != 0 {
		t.Fatalf("an exact outcome must become a sample: timed=%d failed=%d", len(h.timed), h.failed)
	}
	bad := outcome{loss: h.exact.loss, weights: make([][]*tensor.Tensor, len(h.exact.weights))}
	for b, ws := range h.exact.weights {
		for _, wt := range ws {
			bad.weights[b] = append(bad.weights[b], wt.Clone())
		}
	}
	last := bad.weights[len(bad.weights)-1]
	d := last[len(last)-1].Data()
	d[len(d)-1] = math.Float32frombits(math.Float32bits(d[len(d)-1]) ^ 1)
	if h.record(sample{CalS: 0.001}, bad, nil) {
		t.Error("a perturbed weight was accepted")
	}
	if len(h.timed) != 1 || h.failed != 1 {
		t.Errorf("perturbed pass: timed=%d failed=%d, want 1 and 1", len(h.timed), h.failed)
	}
	if r := h.report(); r.Correct || r.Failed != 1 || len(r.Samples) != 1 {
		t.Errorf("report: correct=%v failed=%d samples=%d", r.Correct, r.Failed, len(r.Samples))
	}
}

// TestDeviceOf pins the replica-to-device mapping the Layer wrapper's
// track names rest on.
func TestDeviceOf(t *testing.T) {
	for _, c := range []struct{ replica, block, want int }{
		{0, 0, 0}, {0, 1, 0}, {0, 2, 2}, {0, 3, 2}, {1, 0, 1}, {1, 3, 1},
	} {
		if got := deviceOf(planHybrid, c.replica, c.block); got != c.want {
			t.Errorf("hybrid replica %d block %d on device %d, want %d", c.replica, c.block, got, c.want)
		}
	}
	if got := deviceOf(planTR2, 0, 3); got != 1 {
		t.Errorf("tr2 block 3 on device %d, want 1", got)
	}
}
