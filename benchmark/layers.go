package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/nn"
	"pipebd/internal/tensor"
)

// Direct timings: public functions of each layer called on the shapes
// the workload itself uses (taken from the workload definition, never
// written down a second time). They run once, before the rounds, between
// two spins whose mean calibrates all of them.

// perCall returns the median seconds per call of f over five batches,
// each sized from a first call to last about 20 ms. Under -quick it is
// one batch of about a millisecond.
func (h *harness) perCall(f func()) float64 {
	budget, batches := 20*time.Millisecond, 5
	if h.o.quick {
		budget, batches = time.Millisecond, 1
	}
	t := time.Now()
	f()
	first := time.Since(t)
	n := 1
	if first > 0 && first < budget {
		n = int(budget / first)
	}
	means := make([]float64, batches)
	for i := range means {
		t = time.Now()
		for j := 0; j < n; j++ {
			f()
		}
		means[i] = time.Since(t).Seconds() / float64(n)
	}
	return median(means)
}

func (h *harness) directTimings() error {
	w := h.w
	raw := map[string]float64{} // seconds, uncalibrated
	before := spin(h.o.spinReps())

	raw["dataset.gen_us_per_sample"] = h.perCall(func() {
		if _, err := w.dataSpec(w.steps).Batches(); err != nil {
			panic(err) // the same recipe already built h.batches
		}
	}) * 1e6 / float64(w.samples())
	raw["distill.workbench_build_ms"] = h.perCall(func() { w.newWorkbench() }) * 1e3

	// distill.Step per block, on the rows a device of the block's group
	// sees: the whole batch, or its shard of a split group.
	wb := w.newWorkbench()
	wb.SetBackend(w.tensorBackend())
	stepS := make([]float64, wb.NumBlocks())
	var boundary *tensor.Tensor // what group 0 relays to group 1
	x := h.batches[0].X
	for gi, g := range w.plan.Groups {
		shard := rowsOf(x, 0, x.Dim(0)/g.Split())
		for _, b := range g.Blocks {
			pair, in := wb.Pairs[b], shard
			stepS[b] = h.perCall(func() {
				nn.ZeroGrads(pair.Student.Params())
				distill.Step(pair, in)
			})
			shard = pair.Teacher.Forward(shard, false)
			x = pair.Teacher.Forward(x, false)
		}
		if gi == 0 {
			boundary = shard
		}
	}
	var sum, worst float64
	for _, g := range w.plan.Groups {
		var dev float64
		for _, b := range g.Blocks {
			dev += stepS[b]
		}
		sum += dev * float64(g.Split())
		if dev > worst {
			worst = dev
		}
	}
	raw["distill.block_step_ms_max"] = worst * 1e3
	raw["distill.block_step_ms_sum"] = sum * 1e3

	// One optimizer step over every block's parameters (the gradients are
	// the ones the timing above left behind).
	opt := nn.NewSGD(lr, momentum, 0)
	raw["nn.sgd_step_us"] = h.perCall(func() {
		for b := 0; b < wb.NumBlocks(); b++ {
			opt.Step(wb.StudentParams(b))
		}
	}) * 1e6

	raw["engine.loop_overhead_us_per_step"] = h.loopOverhead() * 1e6

	if w.topology != "" {
		h.wireTimings(raw, wb, boundary)
		if err := tcpTimings(raw, boundary, h.o.quick); err != nil {
			return err
		}
		if err := h.clusterTimings(raw); err != nil {
			return err
		}
	}
	after := spin(h.o.spinReps())
	scale := calFactor(before, after).wall
	h.direct = map[string]float64{}
	for k, v := range raw {
		switch k {
		case "wire.encode_allocs", "ledger.bytes_per_step":
			h.direct[k] = v // counts, not times
		case "transport.tcp_mb_per_s":
			h.direct[k] = v / scale // a rate: time is the denominator
		default:
			h.direct[k] = v * scale
		}
	}
	return nil
}

// snapshotParams are the tensors a recovery snapshot of device 0 holds:
// the student parameters of its group's blocks (the velocities have the
// same shapes, so the timings pass the parameters twice).
func (w *workload) snapshotParams(wb *distill.Workbench) []*tensor.Tensor {
	var params []*tensor.Tensor
	for _, b := range w.plan.Groups[0].Blocks {
		for _, p := range wb.StudentParams(b) {
			params = append(params, p.Value)
		}
	}
	return params
}

// nullLink is a DeviceLink with nobody on the other end: the same input
// every step, and nothing to send, reduce, report or wait for.
type nullLink struct{ x *tensor.Tensor }

func (l nullLink) RecvInput(int) *tensor.Tensor                 { return l.x }
func (nullLink) SendOutput(int, *tensor.Tensor)                 {}
func (nullLink) AllReduce(int, []*tensor.Tensor, *tensor.Arena) {}
func (nullLink) ReportLosses(int, []float64)                    {}
func (nullLink) StepBarrier(int)                                {}

// loopOverhead is what engine.RunMember adds per step around the
// training calls themselves: a single device owning every block runs
// the workload's steps over a null link, against the same calls made by
// hand. The difference of two nearly equal times, so a noisy number.
func (h *harness) loopOverhead() float64 {
	w := h.w
	x := h.batches[0].X
	var loop, bare []float64
	trials := 3
	if h.o.quick {
		trials = 1
	}
	for i := 0; i < trials; i++ {
		wb := w.newWorkbench()
		wb.SetBackend(w.tensorBackend())
		m := engine.Member{GroupSize: 1, Pairs: wb.Pairs}
		for range wb.Pairs {
			m.Opts = append(m.Opts, nn.NewSGD(lr, momentum, 0))
		}
		t := time.Now()
		engine.RunMember(m, w.steps, nullLink{x})
		loop = append(loop, time.Since(t).Seconds())

		wb = w.newWorkbench()
		wb.SetBackend(w.tensorBackend())
		opts := make([]*nn.SGD, len(wb.Pairs))
		for b := range opts {
			opts[b] = nn.NewSGD(lr, momentum, 0)
		}
		t = time.Now()
		for s := 0; s < w.steps; s++ {
			in := x
			for _, p := range wb.Pairs {
				nn.ZeroGrads(p.Student.Params())
				in, _ = distill.Step(p, in)
			}
			for b, p := range wb.Pairs {
				opts[b].Step(p.Student.Params())
			}
		}
		bare = append(bare, time.Since(t).Seconds())
	}
	return (median(loop) - median(bare)) / float64(w.steps)
}

// wireTimings encodes and decodes the activation group 0 relays, and a
// device-0 recovery snapshot (its blocks' parameters and velocities).
func (h *harness) wireTimings(raw map[string]float64, wb *distill.Workbench, act *tensor.Tensor) {
	var frame *wire.Frame
	encode := func() { frame = wire.EncodeTensor(wire.KindOutput, 0, 0, act) }
	raw["wire.encode_tensor_us"] = h.perCall(encode) * 1e6
	raw["wire.encode_allocs"] = testing.AllocsPerRun(10, encode)
	raw["wire.decode_tensor_us"] = h.perCall(func() {
		if _, err := wire.DecodeTensor(frame); err != nil {
			panic(err) // the frame was just encoded
		}
	}) * 1e6
	params := h.w.snapshotParams(wb)
	raw["wire.snapshot_encode_us"] = h.perCall(func() {
		wire.EncodeDeviceSnapshot(0, 0, params, params)
	}) * 1e6
}

// tcpTimings measures the loopback socket itself through transport.TCP:
// the round trip of a control frame, and the one-way rate of a stream of
// activation frames.
func tcpTimings(raw map[string]float64, act *tensor.Tensor, quick bool) error {
	pings, frames := 300, 300
	if quick {
		pings, frames = 10, 10
	}
	tcp := transport.TCP{}
	lis, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer lis.Close()
	echoed := make(chan error, 1)
	go func() {
		// The far end: echo the pings, swallow the stream, acknowledge it.
		conn, err := lis.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		for i := 0; i < pings+frames; i++ {
			f, err := conn.Recv()
			if err != nil {
				echoed <- err
				return
			}
			if i < pings || i == pings+frames-1 {
				if err := conn.Send(f); err != nil {
					echoed <- err
					return
				}
			}
		}
		echoed <- nil
	}()
	conn, err := tcp.Dial(lis.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	ping := wire.Control(wire.KindStepDone, 0, 0)
	t := time.Now()
	for i := 0; i < pings; i++ {
		if err := conn.Send(ping); err != nil {
			return err
		}
		if _, err := conn.Recv(); err != nil {
			return err
		}
	}
	raw["transport.tcp_rtt_us"] = time.Since(t).Seconds() / float64(pings) * 1e6
	frame := wire.EncodeTensor(wire.KindOutput, 0, 0, act)
	t = time.Now()
	for i := 0; i < frames; i++ {
		if err := conn.Send(frame); err != nil {
			return err
		}
	}
	if _, err := conn.Recv(); err != nil {
		return err
	}
	raw["transport.tcp_mb_per_s"] = float64(frames*(16+len(frame.Payload))) / 1e6 / time.Since(t).Seconds()
	return <-echoed
}

// clusterTimings runs the auxiliary cluster passes: one-step sessions
// (what joining, assigning, meshing and returning weights cost with no
// training to speak of), a metered half-length pass (the base the
// marginal per-step traffic is taken against), and for the durable
// workload the ledger a finished pass leaves behind.
func (h *harness) clusterTimings(raw map[string]float64) error {
	w := h.w
	auxPass := func(o passOpts, then func(*rig) error) (float64, error) {
		o.workDir = h.o.workDir
		rig, err := w.setup(o)
		if err != nil {
			return 0, err
		}
		defer rig.teardown()
		t := time.Now()
		if _, err := guarded(rig.run); err != nil {
			return 0, err
		}
		s := time.Since(t).Seconds()
		if then != nil {
			err = then(rig)
		}
		return s, err
	}
	var sessions []float64
	for i := 0; i < 3; i++ {
		s, err := auxPass(passOpts{steps: 1}, nil)
		if err != nil {
			return fmt.Errorf("one-step session: %w", err)
		}
		sessions = append(sessions, s)
	}
	raw["cluster.session_ms"] = median(sessions) * 1e3
	if w.steps > 1 {
		_, err := auxPass(passOpts{steps: w.steps / 2, meter: true}, func(r *rig) error {
			h.halfCoord, h.halfPeer = r.coord.Totals(), r.peer.Totals()
			return nil
		})
		if err != nil {
			return fmt.Errorf("half-length pass: %w", err)
		}
	}
	if !w.durable {
		return nil
	}
	_, err := auxPass(passOpts{}, func(r *rig) error { return h.ledgerTimings(raw, r.ledgerDir) })
	return err
}

// ledgerTimings works on the directory of a finished durable pass:
// the log's size, reopening it (manifest decode plus record replay),
// compacting a copy, and appending snapshot records to another copy.
func (h *harness) ledgerTimings(raw map[string]float64, dir string) error {
	w := h.w
	st, err := os.Stat(filepath.Join(dir, ledger.LogName))
	if err != nil {
		return err
	}
	raw["ledger.bytes_per_step"] = float64(st.Size()) / float64(w.steps)

	var opens, compacts []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		led, _, _, err := ledger.Open(dir)
		if err != nil {
			return err
		}
		opens = append(opens, time.Since(t).Seconds())
		if err := led.Close(); err != nil {
			return err
		}
		cp, err := copyDir(dir)
		if err != nil {
			return err
		}
		defer os.RemoveAll(cp)
		t = time.Now()
		if err := ledger.Compact(cp); err != nil {
			return err
		}
		compacts = append(compacts, time.Since(t).Seconds())
	}
	raw["ledger.open_replay_ms"] = median(opens) * 1e3
	raw["ledger.compact_ms"] = median(compacts) * 1e3

	cp, err := copyDir(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(cp)
	led, _, _, err := ledger.Open(cp)
	if err != nil {
		return err
	}
	params := w.snapshotParams(w.newWorkbench())
	const appends = 200
	t := time.Now()
	for i := 0; i < appends; i++ {
		if err := led.Append(ledger.DevSnapshot(0, w.steps+i, params, params)); err != nil {
			led.Close()
			return err
		}
	}
	raw["ledger.append_us"] = time.Since(t).Seconds() / appends * 1e6
	return led.Close()
}

// copyDir copies a flat directory beside the original.
func copyDir(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	cp, err := os.MkdirTemp(filepath.Dir(dir), "ledger-copy-")
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(cp, e.Name()), blob, 0o644)
		}
		if err != nil {
			os.RemoveAll(cp)
			return "", err
		}
	}
	return cp, nil
}
