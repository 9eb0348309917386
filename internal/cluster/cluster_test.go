package cluster

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/tensor"
)

// TestCoordinatorRejectsBadConfigs: setup errors surface as errors, not
// hangs or panics — among them a data recipe that does not reproduce the
// run's batches, under either topology and for either model.
func TestCoordinatorRejectsBadConfigs(t *testing.T) {
	s := runSpec{plan: hybridPlan(), steps: 2, batch: 8}
	batches, w := s.batches(), s.workbench()
	net := transport.NewLoopback()
	good := s.config()

	bad := good
	bad.Plan = plan("short", g([]int{0}, []int{0})) // covers 1 of 4 blocks
	if _, err := Run(net, []string{"x"}, w, batches, bad); err == nil {
		t.Fatal("invalid plan accepted")
	}
	if _, err := Run(net, nil, w, batches, good); err == nil {
		t.Fatal("no workers accepted")
	}
	if _, err := Run(net, []string{"x"}, w, nil, good); err == nil {
		t.Fatal("no batches accepted")
	}
	bad = good
	bad.Spec.Blocks = 7
	if _, err := Run(net, []string{"x"}, w, batches, bad); err == nil {
		t.Fatal("spec/workbench block mismatch accepted")
	}
	// Batch size not divisible by a group's split.
	odd := runSpec{plan: hybridPlan(), steps: 1, batch: 9}
	if _, err := Run(net, []string{"x"}, w, odd.batches(), odd.config()); err == nil || !strings.Contains(err.Error(), "not divisible") {
		t.Fatalf("indivisible batch: got %v, want a divisibility error", err)
	}
	// A recipe drawn from another seed, and an image recipe for a token
	// model's batches.
	bad = good
	bad.Topology, bad.Data.Seed = "ring", 8
	if _, err := Run(net, []string{"x"}, w, batches, bad); err == nil || !strings.Contains(err.Error(), "Config.Data") {
		t.Fatalf("recipe of another seed: got %v, want the Config.Data validation error", err)
	}
	xfmr := runSpec{model: "transformer", plan: hybridPlan(), steps: 2, batch: 8}
	bad = xfmr.config()
	cfg := distill.DefaultTransformerConfig()
	bad.Data.Kind, bad.Data.C, bad.Data.H, bad.Data.W = "", 1, cfg.SeqLen, 1
	if _, err := Run(net, []string{"x"}, xfmr.workbench(), xfmr.batches(), bad); err == nil || !strings.Contains(err.Error(), "Config.Data") {
		t.Fatalf("image recipe for token batches: got %v, want the Config.Data validation error", err)
	}
}

// panicOnce is a compute backend whose first ConvForwardInto panics; every
// later call, and every other kernel, runs the wrapped backend.
type panicOnce struct {
	tensor.Backend
	fired atomic.Bool
}

func (b *panicOnce) ConvForwardInto(out, w, x *tensor.Tensor, kh, kw, stride, pad int) {
	if b.fired.CompareAndSwap(false, true) {
		panic("poisoned kernel")
	}
	b.Backend.ConvForwardInto(out, w, x, kh, kw, stride, pad)
}

// TestWorkerSurvivesPoisonedSession: a session that blows up inside a
// device loop (here: a kernel that panics once) must fail that session
// only — the coordinator gets an error, and the same worker then serves a
// clean session successfully.
func TestWorkerSurvivesPoisonedSession(t *testing.T) {
	s := runSpec{plan: hybridPlan(), dpu: true, steps: 3, batch: 8}
	net := transport.NewLoopback()
	logf, logs := captureLog()
	addrs := startWorkers(t, net, 1, WorkerConfig{Sessions: 2, Logf: logf,
		Backend: &panicOnce{Backend: tensor.Default()}})
	if _, _, err := s.run(net, addrs, s.config()); err == nil {
		t.Fatal("poisoned session reported success")
	}
	if !strings.Contains(logs(), "device loop panicked: poisoned kernel") {
		t.Fatalf("worker did not fail the session on the device loop's panic; log:\n%s", logs())
	}

	// The worker must still be alive and serve a correct session.
	res, w, err := s.run(net, addrs, s.config())
	if err != nil {
		t.Fatalf("clean session after poisoned one: %v", err)
	}
	s.check(t, res, w)
}

// TestWorkerServesSequentialSessions: one worker serves its session
// budget's coordinator sessions back to back (join, drain, rejoin), each
// from scratch.
func TestWorkerServesSequentialSessions(t *testing.T) {
	s := runSpec{plan: trPlan(), dpu: true, steps: 3, batch: 8}
	net := transport.NewLoopback()
	addrs := startWorkers(t, net, 1, WorkerConfig{Sessions: 2})
	for i := 0; i < 2; i++ {
		res, w, err := s.run(net, addrs, s.config())
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		s.check(t, res, w)
	}
}

// TestCoordinatorHandshakeTimeout: a TCP peer that accepts connections
// (listen backlog) but never speaks must not hang the join past the
// configured window.
func TestCoordinatorHandshakeTimeout(t *testing.T) {
	lis, err := transport.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer lis.Close() // never Accept: connects succeed, nothing is sent
	s := runSpec{plan: trPlan(), steps: 2, batch: 8}
	cfg := s.config()
	cfg.JoinTimeout = 300 * time.Millisecond
	start := time.Now()
	if _, _, err := s.run(transport.TCP{}, []string{lis.Addr(), lis.Addr()}, cfg); err == nil {
		t.Fatal("silent peer joined successfully")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("handshake wait was not bounded by the join timeout")
	}
}

// TestCoordinatorJoinTimeout: dialing a worker that never comes up fails
// within the join window instead of hanging.
func TestCoordinatorJoinTimeout(t *testing.T) {
	s := runSpec{plan: trPlan(), steps: 2, batch: 8}
	cfg := s.config()
	cfg.JoinTimeout = 200 * time.Millisecond
	start := time.Now()
	if _, _, err := s.run(transport.NewLoopback(), []string{"ghost-a", "ghost-b"}, cfg); err == nil {
		t.Fatal("join to absent workers succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("join timeout did not bound the wait")
	}
}

// TestWorkerRejectsUnknownSpec: a worker handed a spec it cannot build
// fails the session; the coordinator surfaces an error.
func TestWorkerRejectsUnknownSpec(t *testing.T) {
	s := runSpec{plan: trPlan(), steps: 2, batch: 8}
	net := transport.NewLoopback()
	addrs := startWorkers(t, net, 1, WorkerConfig{Sessions: 1})
	cfg := s.config()
	cfg.Spec.Name = "no-such-model"
	if _, _, err := s.run(net, addrs, cfg); err == nil {
		t.Fatal("unknown spec trained successfully")
	}
}

func TestPlaceDevices(t *testing.T) {
	cases := []struct {
		nDev, nWorkers int
		want           [][]int
	}{
		{4, 2, [][]int{{0, 1}, {2, 3}}},
		{3, 2, [][]int{{0, 1}, {2}}},
		{2, 3, [][]int{{0}, {1}, nil}},
		{5, 1, [][]int{{0, 1, 2, 3, 4}}},
	}
	for _, c := range cases {
		if got := PlaceDevices(c.nDev, c.nWorkers); !slices.EqualFunc(got, c.want, slices.Equal) {
			t.Fatalf("PlaceDevices(%d,%d) = %v, want %v", c.nDev, c.nWorkers, got, c.want)
		}
	}
}

// TestSnapshotCaptureInstall round-trips a workbench's parameters through
// capture + install on a fresh replica.
func TestSnapshotCaptureInstall(t *testing.T) {
	a := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	// Make a's weights distinctive.
	for blk := 0; blk < a.NumBlocks(); blk++ {
		for _, prm := range a.StudentParams(blk) {
			d := prm.Value.Data()
			for i := range d {
				d[i] *= 1.5
			}
		}
	}
	snap := CaptureSnapshot(a)
	b := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	if err := InstallSnapshot(b, snap); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if err := (trajectory{w: a}).diff(engine.Result{}, b); err != nil {
		t.Fatalf("capture/install: %v", err)
	}

	// Mismatched architecture is rejected.
	cfg := distill.DefaultTinyConfig()
	cfg.Blocks = 2
	if err := InstallSnapshot(distill.NewTinyWorkbench(cfg), snap); err == nil {
		t.Fatal("snapshot installed into wrong architecture")
	}
}

func TestBuildWorkbenchUnknownSpec(t *testing.T) {
	if _, err := BuildWorkbench(TinySpec(distill.DefaultTinyConfig())); err != nil {
		t.Fatalf("tiny spec: %v", err)
	}
	bad := TinySpec(distill.DefaultTinyConfig())
	bad.Name = "mystery"
	if _, err := BuildWorkbench(bad); err == nil {
		t.Fatal("unknown spec built")
	}
}
