package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
)

// sample is one pass's measurements. A failed pass leaves no sample.
type sample struct {
	Round      int     `json:"round"`
	Traced     bool    `json:"traced,omitempty"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	CalS       float64 `json:"cal_s"`
	CalCPUS    float64 `json:"cal_cpu_s"`
	SpinS      float64 `json:"spin_s"`     // mean wall of the two bracketing spins
	SpinCPUS   float64 `json:"spin_cpu_s"` // mean CPU of the same two
	AllocBytes uint64  `json:"alloc_bytes"`
	SetupS     float64 `json:"setup_s"`
	SetupCalS  float64 `json:"setup_cal_s"`
}

// harness measures one workload: closed loop, one driver goroutine,
// passes back to back, GOMAXPROCS left at the host default.
type harness struct {
	w   *workload
	o   options
	rec *recorder // non-nil in a --trace 1 run; one per workload

	seq, exact outcome // oracle A, and what every pass must reproduce
	batches    []dataset.Batch

	attempted, failed int
	failures          []string
	timedOut          bool
	passID            int

	timed, traced []sample
	spins         []float64 // every spin's wall seconds
	// Calibrated seconds of the baseline passes a --trace 1 run adds.
	seqS, dpS, inprocS []float64
	// Meter totals of the latest untraced pass, and of the direct
	// phase's half-length pass they are compared with.
	coord, peer         transport.Totals
	halfCoord, halfPeer transport.Totals
	direct              map[string]float64 // layers.go
}

func (h *harness) warmups() int {
	if h.o.quick {
		return 1
	}
	return 3
}

// prepare computes the oracles, runs the warm-up passes and, in a traced
// run, the direct layer timings. None of it is timed.
func (h *harness) prepare() error {
	if h.o.trace {
		h.rec = newRecorder()
	}
	var err error
	if h.seq, h.exact, err = oracles(h.w, h.w.steps); err != nil {
		return err
	}
	if h.batches, err = h.w.dataSpec(h.w.steps).Batches(); err != nil {
		return err
	}
	last := h.spin()
	for i := 0; i < h.warmups(); i++ {
		last = h.pass(-1, false, last)
	}
	if h.failed > 0 {
		return fmt.Errorf("%s: warm-up pass failed: %s", h.w.name, h.failures[0])
	}
	h.attempted, h.timed, h.spins = 0, nil, nil
	if h.rec != nil {
		if err := h.directTimings(); err != nil {
			return fmt.Errorf("%s: direct layer timings: %w", h.w.name, err)
		}
	}
	return nil
}

// round runs this workload's share of one round: one timed pass, and in
// a traced run one traced pass beside it plus, every third round, the
// baselines the per-layer ratios divide by. before is the spin that
// closed the previous pass; the spin that closes this one is returned.
func (h *harness) round(round int, before elapsed) elapsed {
	last := h.pass(round, false, before)
	if h.rec == nil || h.timedOut {
		return last
	}
	last = h.pass(round, true, last)
	if round%3 != 0 {
		return last
	}
	w := h.w
	last = h.baseline(last, &h.seqS, h.seq, 0, func(wb *distill.Workbench) engine.Result {
		return engine.RunSequential(wb, h.batches, lr, momentum)
	})
	if w.topology != "" {
		last = h.baseline(last, &h.inprocS, h.exact, 0, func(wb *distill.Workbench) engine.Result {
			return engine.RunPipelined(wb, h.batches, engine.Config{Plan: w.plan, DPU: w.dpu,
				LR: lr, Momentum: momentum, Backend: w.tensorBackend()})
		})
	}
	if w.dpRef {
		last = h.baseline(last, &h.dpS, h.seq, 1e-3, func(wb *distill.Workbench) engine.Result {
			return runDP(wb, h.batches, w.devices())
		})
	}
	return last
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.failures) < 8 {
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
}

// pass sets up, runs, checks and tears down one pass, bracketed by
// spins: before · set-up · GC · mid · the timed run · after.
func (h *harness) pass(round int, traced bool, before elapsed) elapsed {
	h.attempted++
	h.passID++
	opts := passOpts{workDir: h.o.workDir, pass: h.passID, meter: h.rec != nil && !traced}
	if traced {
		opts.rec = h.rec
	}
	t := now()
	rig, err := h.w.setup(opts)
	setup := t.since()
	if err != nil {
		h.fail("pass %d set-up: %v", h.passID, err)
		return h.spin()
	}
	// The forced collection keeps set-up garbage out of the timed region.
	runtime.GC()
	mid := h.spin()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = now()
	res, err := guarded(rig.run)
	region := t.since()
	runtime.ReadMemStats(&m1)
	after := h.spin()
	if err == errTimeout {
		// The run's goroutines are still going: nothing measured after
		// this point could be trusted, and teardown would wait for them.
		h.fail("pass %d: %v", h.passID, err)
		h.timedOut = true
		return after
	}
	defer rig.teardown()
	cal, calSetup := calibrated(region, mid, after), calibrated(setup, before, mid)
	s := sample{Round: round, Traced: traced, WallS: region.wall, CPUS: region.cpu,
		CalS: cal.wall, CalCPUS: cal.cpu, SpinS: (mid.wall + after.wall) / 2,
		SpinCPUS:   (mid.cpu + after.cpu) / 2,
		AllocBytes: m1.TotalAlloc - m0.TotalAlloc, SetupS: setup.wall, SetupCalS: calSetup.wall}
	if h.record(s, capture(rig.wb, res), err) && rig.coord != nil {
		h.coord, h.peer = rig.coord.Totals(), rig.peer.Totals()
	}
	return after
}

// record files one finished pass: a timing sample when it returned no
// error and its outcome is bit for bit the oracle's, a failure — and no
// sample — otherwise.
func (h *harness) record(s sample, got outcome, err error) bool {
	if err == nil {
		err = h.exact.differs(got, 0)
	}
	if err != nil {
		h.fail("pass %d: %v", h.passID, err)
		return false
	}
	if s.Traced {
		h.traced = append(h.traced, s)
	} else {
		h.timed = append(h.timed, s)
	}
	return true
}

func (h *harness) spin() elapsed {
	e := spin(h.o.spinReps())
	h.spins = append(h.spins, e.wall)
	return e
}

// baseline times body — another way of training the same model on the
// same batches — on a fresh workbench, checks its outcome against want,
// and appends its calibrated seconds to dst.
func (h *harness) baseline(before elapsed, dst *[]float64, want outcome, rtol float64,
	body func(wb *distill.Workbench) engine.Result) elapsed {
	h.attempted++
	wb := h.w.newWorkbench()
	runtime.GC()
	t := now()
	res, err := guarded(func() (engine.Result, error) { return body(wb), nil })
	region := t.since()
	after := h.spin()
	if err == errTimeout {
		h.timedOut = true
	}
	if err == nil {
		err = want.differs(capture(wb, res), rtol)
	}
	if err != nil {
		h.fail("baseline pass: %v", err)
		return after
	}
	*dst = append(*dst, calibrated(region, before, after).wall)
	return after
}

// --- metrics ------------------------------------------------------------------

// column extracts one field of every sample.
func column(ss []sample, f func(sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

// endToEndOf computes the end-to-end metrics over a set of samples.
func (h *harness) endToEndOf(ss []sample) map[string]float64 {
	col := func(f func(sample) float64) float64 { return median(column(ss, f)) }
	ksamples := float64(h.w.samples()) / 1000
	return map[string]float64{
		"samples_per_s":        float64(h.w.samples()) / col(func(s sample) float64 { return s.CalS }),
		"cpu_s_per_ksample":    col(func(s sample) float64 { return s.CalCPUS }) / ksamples,
		"alloc_mb_per_ksample": col(func(s sample) float64 { return float64(s.AllocBytes) }) / 1e6 / ksamples,
		"setup_s":              col(func(s sample) float64 { return s.SetupCalS }),
	}
}

// splitHalf computes each end-to-end metric over the first and the
// second half of the timed passes, and the largest relative gap.
func (h *harness) splitHalf() (halves map[string][2]float64, unstable []string, worst float64) {
	halves = map[string][2]float64{}
	n := len(h.timed)
	if n < 2 {
		return halves, nil, 0
	}
	first, second := h.endToEndOf(h.timed[:n/2]), h.endToEndOf(h.timed[n/2:])
	for _, d := range endToEnd {
		a, b := first[d.name], second[d.name]
		halves[d.name] = [2]float64{a, b}
		gap := math.Abs(a-b) / ((a + b) / 2)
		if gap > d.bound {
			unstable = append(unstable, d.name)
		}
		worst = math.Max(worst, gap)
	}
	return halves, unstable, worst
}

func (h *harness) report() workloadReport {
	r := workloadReport{Name: h.w.name, Why: h.w.why, Attempted: h.attempted, Failed: h.failed,
		Failures: h.failures, Correct: h.failed == 0 && len(h.timed) > 0,
		Metrics: map[string]metricValue{}, Samples: append(h.timed, h.traced...)}
	var worst float64
	r.SplitHalf, r.Unstable, worst = h.splitHalf()
	defs, vals := endToEnd, map[string]float64{}
	if len(h.timed) > 0 {
		vals = h.endToEndOf(h.timed)
	}
	if h.rec != nil {
		defs, vals = perLayer, h.layerMetrics(worst)
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

// layerMetrics assembles the per-layer metrics of a traced run from the
// recorder's spans, the direct timings and the baseline passes.
func (h *harness) layerMetrics(splitHalfGap float64) map[string]float64 {
	w := h.w
	m := map[string]float64{}
	for k, v := range h.direct {
		m[k] = v
	}
	calS := func(s sample) float64 { return s.CalS }
	wallS := func(s sample) float64 { return s.WallS }
	passCal := median(column(h.timed, calS))
	stepMs := passCal * 1e3 / float64(w.steps)

	// Spans carry raw time. Rescale them by the traced passes' own
	// calibration, then spread them over the steps those passes trained.
	var rawSum, calSum float64
	for _, s := range h.traced {
		rawSum += s.WallS
		calSum += s.CalS
	}
	steps := float64(len(h.traced) * w.steps)
	perStepMs := func(t spanTotal) float64 {
		if steps == 0 || rawSum == 0 {
			return 0
		}
		return t.durNs / 1e6 * (calSum / rawSum) / steps
	}
	of := func(layer string, names ...string) spanTotal {
		return h.rec.total(func(_ string, s *span) bool {
			return s.layer == layer && slices.Contains(names, s.name)
		})
	}

	gemmKinds := []string{kGemm, kBatchGemm, kConvGemm}
	gemms := of("tensor", gemmKinds...)
	kernels := of("tensor", kGemm, kBatchGemm, kConvGemm, kIm2col, kEltwise)
	m["tensor.gemm_ms_per_step"] = perStepMs(of("tensor", kGemm))
	m["tensor.batch_gemm_ms_per_step"] = perStepMs(of("tensor", kBatchGemm))
	m["tensor.conv_gemm_ms_per_step"] = perStepMs(of("tensor", kConvGemm))
	m["tensor.im2col_ms_per_step"] = perStepMs(of("tensor", kIm2col))
	m["tensor.eltwise_ms_per_step"] = perStepMs(of("tensor", kEltwise))
	if steps > 0 {
		m["tensor.kernel_calls_per_step"] = float64(kernels.count) / steps
		m["tensor.gflop_per_step"] = kernels.flops / 1e9 / steps
	}
	if gemms.durNs > 0 {
		m["tensor.gflops"] = gemms.flops / gemms.durNs // flop/ns is GFLOP/s
		skinny := h.rec.total(func(_ string, s *span) bool {
			return s.layer == "tensor" && s.rows < 8 && slices.Contains(gemmKinds, s.name)
		})
		m["tensor.skinny_call_share"] = float64(skinny.count) / float64(gemms.count)
	}

	// In-process the Layer wrapper times the phases and owns its kernels
	// as children. A cluster worker builds its own workbench, so there
	// the phases come from the spans the device loop ships, and self
	// time is what the kernels leave of them.
	phaseLayer := "nn"
	if w.topology != "" {
		phaseLayer = "cluster"
	}
	tf, sf, sb := of(phaseLayer, "teacher_fwd"), of(phaseLayer, "student_fwd"), of(phaseLayer, "student_bwd")
	m["nn.teacher_fwd_ms_per_step"] = perStepMs(tf)
	m["nn.student_fwd_ms_per_step"] = perStepMs(sf)
	m["nn.student_bwd_ms_per_step"] = perStepMs(sb)
	if w.topology == "" {
		m["nn.self_ms_per_step"] = perStepMs(spanTotal{durNs: tf.selfNs + sf.selfNs + sb.selfNs})
		if steps > 0 {
			m["distill.teacher_fwd_per_step"] = float64(tf.rows) / float64(w.batch) / steps
		}
	} else {
		m["nn.self_ms_per_step"] = perStepMs(spanTotal{durNs: tf.durNs + sf.durNs + sb.durNs - kernels.durNs})
		// Each call covers 1/k of the batch on a device of a k-way group.
		var full float64
		for _, g := range w.plan.Groups {
			for _, dev := range g.Devices {
				name := fmt.Sprintf("dev%d", dev)
				calls := h.rec.total(func(track string, s *span) bool {
					return track == name && s.layer == "cluster" && s.name == "teacher_fwd"
				}).count
				full += float64(calls) / float64(g.Split())
			}
		}
		if steps > 0 {
			m["distill.teacher_fwd_per_step"] = full / steps
		}
	}

	m["engine.allreduce_ms_per_step"] = perStepMs(of("engine", "allreduce"))
	m["engine.relay_wait_ms_per_step"] = perStepMs(of("engine", "recv_act"))
	m["engine.barrier_wait_ms_per_step"] = perStepMs(of("engine", "barrier_wait"))
	m["cluster.allreduce_ms_per_step"] = perStepMs(of("cluster", "allreduce"))
	m["cluster.ack_wait_ms_per_step"] = perStepMs(of("cluster", "peer_ack_wait"))
	m["cluster.recv_wait_ms_per_step"] = perStepMs(of("cluster", "recv_act", "recv_input"))
	m["cluster.barrier_wait_ms_per_step"] = perStepMs(of("cluster", "barrier_wait"))
	m["cluster.snapshot_ms_per_step"] = perStepMs(of("cluster", "snapshot_write"))
	m["cluster.ledger_append_ms_per_step"] = perStepMs(of("cluster", "ledger_append"))
	m["transport.send_ms_per_step"] = perStepMs(of("transport", "send"))
	m["transport.recv_blocked_ms_per_step"] = perStepMs(of("transport", "recv"))

	// The bound a perfect schedule could reach: the slowest device's own
	// work, or all devices' work spread over the cores there are.
	cores := float64(runtime.GOMAXPROCS(0))
	ideal := math.Max(m["distill.block_step_ms_max"], m["distill.block_step_ms_sum"]/cores)
	m["engine.ideal_ms_per_step"] = ideal
	if stepMs > 0 {
		m["engine.efficiency"] = ideal / stepMs
	}
	ratio := func(num []float64) float64 {
		if len(num) == 0 || passCal == 0 {
			return 0
		}
		return median(num) / passCal
	}
	if len(h.seqS) > 0 {
		m["engine.seq_samples_per_s"] = float64(w.samples()) / median(h.seqS)
	}
	m["engine.speedup_vs_seq"] = ratio(h.seqS)
	m["engine.speedup_vs_dp_ref"] = ratio(h.dpS)
	if len(h.inprocS) > 0 {
		m["cluster.vs_inproc_ratio"] = passCal / median(h.inprocS)
	}
	if w.topology != "" && w.steps > 1 {
		m["cluster.step_ms"] = (passCal*1e3 - m["cluster.session_ms"]) / float64(w.steps-1)
		// Marginal traffic: a full pass minus the half-length one, so the
		// session's fixed model broadcast and weight return cancel.
		d := float64(w.steps - w.steps/2)
		m["transport.coord_bytes_per_step"] = float64(h.coord.Bytes()-h.halfCoord.Bytes()) / d
		m["transport.peer_bytes_per_step"] = float64(h.peer.Bytes()-h.halfPeer.Bytes()) / d
		frames := func(t transport.Totals) int64 { return t.SentFrames + t.RecvFrames }
		m["transport.coord_frames_per_step"] = float64(frames(h.coord)-frames(h.halfCoord)) / d
		m["transport.peer_frames_per_step"] = float64(frames(h.peer)-frames(h.halfPeer)) / d
		m["transport.net_bytes_per_sample"] = float64(h.coord.Bytes()+h.peer.Bytes()) / float64(w.samples())
	}

	if un, tr := passCal, median(column(h.traced, calS)); un > 0 && tr > 0 {
		m["obs.trace_overhead_share"] = (tr - un) / un
	}

	m["benchmark.spin_ms_p50"] = median(h.spins) * 1e3
	if sp := median(h.spins); sp > 0 {
		m["benchmark.spin_iqr_share"] = (quantile(h.spins, 0.75) - quantile(h.spins, 0.25)) / sp
	}
	raw := column(h.timed, wallS)
	m["benchmark.pass_ms_p50"] = median(raw) * 1e3
	m["benchmark.pass_ms_p80"] = quantile(raw, 0.8) * 1e3
	if p := median(raw); p > 0 {
		m["benchmark.samples_per_s_raw"] = float64(w.samples()) / p
	}
	m["benchmark.cpu_s_per_ksample_raw"] = median(column(h.timed, func(s sample) float64 { return s.CPUS })) * 1000 / float64(w.samples())
	m["benchmark.split_half_gap"] = splitHalfGap
	m["benchmark.traced_passes"] = float64(len(h.traced))
	return m
}
