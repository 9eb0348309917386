package cluster

import (
	"fmt"
	"runtime"
	"runtime/debug"
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
	go func() { ws.routed <- route(ws.control, ws.m, devices) }()
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
		if err := <-ws.routed; err != nil {
			ws.t.Errorf("router: %v", err)
		}
	}
	ws.m.close(graceful)
	ws.control.close(graceful)
	ws.coord.Close()
	ws.w.Close()
}
