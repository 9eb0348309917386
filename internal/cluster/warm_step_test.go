package cluster

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/engine"
	"pipebd/internal/tensor"
)

// TestWarmWorkerStepAllocatesNothing: once warm, one whole training step
// of every device of a session allocates nothing — its input built or
// decoded, its output encoded and sent, the acks under DPU or the barrier
// round trip without it, the pair and ring all-reduces, the losses and
// the snapshots — on direct peer links and on edges relayed through the
// coordinator alike. The devices run the engine's own device loop on the
// worker's links, one step at a time; the test answers the control link
// as a coordinator would (relays forwarded, the barrier released) without
// allocating itself.
func TestWarmWorkerStepAllocatesNothing(t *testing.T) {
	for _, topology := range []string{"ring", "hub"} {
		for _, dpu := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/dpu=%v", topology, dpu), func(t *testing.T) {
				leakCheck(t)
				// The runtime caches the records a blocked goroutine waits in
				// per processor, and drops them with the processor when
				// GOMAXPROCS shrinks (AllocsPerRun sets it to 1) or when a
				// collection runs: the waits after either allocate them
				// again, which is the runtime's doing, not the step's. So
				// the warm-up runs where the measurement does.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				const warm, runs = 8, 30
				s := runSpec{dpu: dpu, steps: warm + 1 + runs, batch: 6,
					plan: plan("warm", g([]int{0, 1}, []int{0}), g([]int{2, 3, 4}, []int{1, 2}), g([]int{5}, []int{3}))}
				sess := openWarmSession(t, s, topology)
				defer sess.close()
				for range warm {
					sess.step()
				}
				if n := testing.AllocsPerRun(runs, sess.step); n != 0 {
					t.Errorf("a warm step of the session's %d devices allocates %v times", len(sess.gates), n)
				}
			})
		}
	}
}

// warmSession is one worker session hosting every device of a plan, its
// links and mesh built as serveSession builds them, whose devices each
// take a step when step says so.
type warmSession struct {
	t       *testing.T
	w       *Worker
	control *endpoint
	m       *mesh
	coord   transport.Conn // the coordinator's end of the control link
	gates   []gate
	steps   int // the run's; taken so far
	taken   int
	failed  chan error
	routed  chan error
	ran     chan struct{} // closed once every device loop returned
}

// gate holds a device loop at each step's input until the test lets it
// take the step, and reports the step's end.
type gate struct {
	*ringLink
	next, done chan struct{}
}

func (g gate) RecvInput(step int) *tensor.Tensor {
	<-g.next
	return g.ringLink.RecvInput(step)
}

func (g gate) FinishStep(step int) {
	g.ringLink.FinishStep(step)
	g.done <- struct{}{}
}

func openWarmSession(t *testing.T, s runSpec, topology string) *warmSession {
	t.Helper()
	nDev := s.plan.NumDevices()
	net := transport.NewLoopback()
	lis, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(lis, WorkerConfig{Dial: net})
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	t.Cleanup(func() { <-served })

	assign := &wire.Assign{Plan: s.plan, Spec: s.modelSpec(), Epoch: 1, Snapshot: CaptureSnapshot(s.workbench()),
		Run: wire.RunConfig{DPU: s.dpu, LR: 0.05, Momentum: 0.9, Steps: s.steps, Topology: topology,
			Snap: wire.SnapshotPolicy{Interval: 1}, Data: s.data()}}
	for d := range nDev {
		assign.Devices = append(assign.Devices, d)
		assign.Peers = append(assign.Peers, w.Addr())
	}
	if topology == "hub" {
		for _, e := range planEdges(s.plan) {
			assign.Relayed = append(assign.Relayed, e[0], e[1])
		}
	}

	// The control link is a connection of its own, whose far end plays
	// the coordinator.
	ctl := transport.NewLoopback()
	ctlLis, err := ctl.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ctlLis.Close()
	coord, err := ctl.Dial(ctlLis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := ctlLis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	links := linkPolicy{epoch: assign.Epoch, net: net, clock: w.clock, logf: t.Logf}
	ws := &warmSession{t: t, w: w, coord: coord, steps: s.steps, failed: make(chan error, nDev), routed: make(chan error, 1), ran: make(chan struct{})}
	ws.control = links.endpoint(conn, 0, int(wire.NoDev), "control link", "")
	devices, err := w.buildDevices(assign, ws.control.out, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws.m = newMesh(links, assign, ws.control)
	go func() { ws.routed <- route(ws.control, ws.m, devices, func(err error) { ws.failed <- err }) }()
	if err := w.establishMesh(ws.m, assign, devices); err != nil {
		t.Fatal(err)
	}
	go answerControl(coord, nDev, s.steps)

	loops := make(chan struct{}, nDev)
	for _, d := range devices {
		g := gate{ringLink: d.link, next: make(chan struct{}, 1), done: make(chan struct{}, 1)}
		ws.gates = append(ws.gates, g)
		go func() {
			defer func() { loops <- struct{}{} }()
			var err error
			defer func() {
				if err != nil {
					ws.failed <- err
				}
			}()
			defer recoverSession(&err)
			engine.RunMemberFrom(d.member, 0, s.steps, g)
		}()
	}
	go func() {
		for range nDev {
			<-loops
		}
		close(ws.ran)
	}()
	return ws
}

// answerControl plays the coordinator's part of a session hosting every
// device: a relay envelope goes back down the link it came up, the last
// arrival at a step's barrier releases every device, and everything else
// is read and released. It returns when the link closes.
func answerControl(coord transport.Conn, nDev, steps int) {
	arrived := make([]int, steps)
	for {
		f, err := coord.Recv()
		if err != nil {
			return
		}
		switch f.Kind {
		case wire.KindRelay:
			_ = coord.Send(f)
			continue
		case wire.KindStepDone:
			if step := f.Step; step >= 0 && int(step) < steps {
				if arrived[step]++; arrived[step] == nDev {
					for d := range nDev {
						_ = coord.Send(wire.PooledControl(wire.KindStepGo, int32(d), step))
					}
				}
			}
		}
		f.Release()
	}
}

// step lets every device take its next step and waits for all to finish
// it.
func (ws *warmSession) step() {
	ws.taken++
	for _, g := range ws.gates {
		g.next <- struct{}{}
	}
	for _, g := range ws.gates {
		select {
		case <-g.done:
		case err := <-ws.failed:
			ws.fail(err)
		}
	}
}

// fail ends the test on a device's failure, waking every device loop
// still waiting on a frame.
func (ws *warmSession) fail(err error) {
	for _, g := range ws.gates {
		g.in.fail(err)
	}
	ws.m.fail(err)
	ws.coord.Close()
	ws.t.Fatalf("a device failed: %v", err)
}

// close runs the devices out of their remaining steps, then drains and
// tears the session down as the coordinator and the worker would.
func (ws *warmSession) close() {
	graceful := !ws.t.Failed()
	for graceful && ws.taken < ws.steps {
		ws.step()
	}
	if graceful {
		<-ws.ran
		ws.coord.Send(wire.Control(wire.KindDrain, wire.NoDev, wire.NoStep))
		ws.coord.Close() // the router reads to this close
		if err := <-ws.routed; err != nil {
			ws.t.Errorf("router: %v", err)
		}
	}
	ws.m.close(graceful)
	ws.control.close(graceful)
	ws.coord.Close()
	ws.w.Close()
}

// TestWarmCoordinatorEventsAllocateNothing: once warm, the coordinator's
// loop handles each event of a durable step without allocating, its
// ledger append included: a losses report, a group leader's snapshot —
// which stays encoded from the frame to the log, the account keeping a
// copy in a recycled buffer — and a step-done that completes the barrier
// and sends every device its StepGo. The loop runs on an attempt whose
// only session hosts every device of hybridPlan, its ledger in a temp
// dir; the session's outbox drops what it is handed.
func TestWarmCoordinatorEventsAllocateNothing(t *testing.T) {
	leakCheck(t)
	// See TestWarmWorkerStepAllocatesNothing: the warm-up runs where the
	// measurement does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warm, runs = 4, 20
	s := runSpec{plan: hybridPlan(), steps: warm + runs + 1, batch: 8}
	cfg := s.config()
	cfg.LedgerDir = filepath.Join(t.TempDir(), "ledger")
	w := s.workbench()
	d, err := NewCoordinator(transport.NewLoopback(), cfg).newDriver(w, CaptureSnapshot(w), s.steps, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	led, err := d.c.createLedger(d.setup, d.addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	r := d.newRun(1)
	r.led = led
	var dropped atomic.Int64
	out := newOutbox(func(f *wire.Frame) error {
		f.Release()
		dropped.Add(1)
		return nil
	})
	defer out.Close()
	r.peers = []*peerConn{{endpoint: &endpoint{out: out}, addr: "w"}}
	r.core.place(0, []session{{addr: "w", devices: []int{0, 1, 2}}}, nil)

	// hybridPlan: devices 0 and 1 train blocks 0 and 1, device 2 blocks 2
	// and 3; devices 0 and 2 lead their groups and snapshot.
	leaders := []int{0, 2}
	values, velocity := make([][]*tensor.Tensor, 3), make([][]*tensor.Tensor, 3)
	for _, dev := range leaders {
		for _, b := range s.plan.Groups[s.plan.GroupOf(dev)].Blocks {
			values[dev] = append(values[dev], d.setup.Snapshot.Student[b])
			velocity[dev] = append(velocity[dev], tensor.New(d.setup.Snapshot.Student[b].Numel()))
		}
	}
	lossRow := []float64{0.5, 0.25}
	handle := func(f *wire.Frame) {
		if _, done, err := r.handle(frameEvent(0, 0, f)); done {
			t.Fatalf("the attempt ended on a %v frame: %v", f.Kind, err)
		}
	}
	// Each event kind runs its own steps in order; the losses and the
	// releases lead, so each snapshot moves the cut and frees the buffer
	// of the snapshot before it.
	var next [3]int32
	losses := func() {
		for dev := range int32(3) {
			handle(wire.EncodeLosses(dev, next[0], lossRow))
		}
		next[0]++
	}
	barrier := func() {
		for dev := range int32(3) {
			handle(wire.PooledControl(wire.KindStepDone, dev, next[1]))
		}
		next[1]++
		// The outbox drops the StepGo frames before the next step.
		for dropped.Load() < 3*int64(next[1]) {
			runtime.Gosched()
		}
	}
	snapshot := func() {
		for _, dev := range leaders {
			handle(wire.PooledDeviceSnapshot(int32(dev), next[2], values[dev], velocity[dev]))
		}
		next[2]++
	}
	for range warm {
		losses()
		barrier()
		snapshot()
	}
	for _, ev := range []struct {
		name string
		run  func()
	}{{"losses report", losses}, {"step-done completing the barrier", barrier}, {"snapshot", snapshot}} {
		if n := testing.AllocsPerRun(runs, ev.run); n != 0 {
			t.Errorf("a warm %s allocates %v times", ev.name, n)
		}
	}
	if cut := d.acct.Cut(); cut != s.steps-1 {
		t.Errorf("the cut is step %d after %d steps", cut, s.steps)
	}
	if recs, _ := led.Written(); recs != int64(6*s.steps) {
		t.Errorf("the ledger holds %d records of %d steps, want 6 a step", recs, s.steps)
	}
}
