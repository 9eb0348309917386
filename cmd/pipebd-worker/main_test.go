package main

import (
	"errors"
	"flag"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/sched"
)

func TestNewWorkerFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-listen"},              // missing value
		{"-sessions", "-1"},      // negative sessions
		{"-workers", "4"},        // retired flag
		{"-backend", "parallel"}, // retired flag: the Assign names the backend
		{"extra-arg"},            // positional junk
		{"-listen", "notaport"},  // unbindable address
	}
	for _, args := range cases {
		if w, err := newWorker(args, &strings.Builder{}); err == nil {
			w.Close()
			t.Errorf("newWorker(%v) succeeded, want error", args)
		}
	}
}

// tinyData is the recipe of two batches of eight for the tiny workbench,
// and its evaluation.
func tinyData(t *testing.T, tiny distill.TinyConfig) (wire.DataSpec, []dataset.Batch) {
	t.Helper()
	ds := wire.DataSpec{Seed: 7, N: 2 * 8, C: 3, H: tiny.Height, W: tiny.Width, Classes: 4, Batch: 8}
	batches, err := ds.Batches()
	if err != nil {
		t.Fatal(err)
	}
	return ds, batches
}

func trainOnce(t *testing.T, net transport.Network, addr string) {
	t.Helper()
	tiny := distill.DefaultTinyConfig()
	data, batches := tinyData(t, tiny)
	w := distill.NewTinyWorkbench(tiny)
	plan := sched.Plan{Name: "tr", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0, 1}},
		{Devices: []int{1}, Blocks: []int{2, 3}},
	}}
	res, err := cluster.Run(net, []string{addr}, w, batches,
		cluster.Config{Plan: plan, DPU: true, LR: 0.05, Momentum: 0.9, Spec: cluster.TinySpec(tiny), Data: data})
	if err != nil {
		t.Fatalf("cluster run against worker: %v", err)
	}
	if len(res.Loss) != 4 || len(res.Loss[0]) != 2 {
		t.Fatalf("unexpected trajectory shape: %d blocks x %d steps", len(res.Loss), len(res.Loss[0]))
	}
	for b, row := range res.Loss {
		for s, l := range row {
			if !(l > 0) {
				t.Fatalf("block %d step %d loss %v, want > 0", b, s, l)
			}
		}
	}
}

// TestWorkerEndToEndTCP boots the binary's worker (flag parsing included)
// on an ephemeral TCP port and trains one session against it.
func TestWorkerEndToEndTCP(t *testing.T) {
	var out strings.Builder
	w, err := newWorker([]string{"-listen", "127.0.0.1:0", "-sessions", "1", "-quiet"}, &out)
	if err != nil {
		t.Fatalf("newWorker: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- w.Serve() }()
	defer w.Close()

	if !strings.Contains(out.String(), "listening on "+w.Addr()) {
		t.Fatalf("startup banner missing address: %q", out.String())
	}
	trainOnce(t, transport.TCP{}, w.Addr())
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestWorkerLoopbackSmoke runs the same worker server the binary wraps
// over the in-memory loopback transport: one session, no sockets.
func TestWorkerLoopbackSmoke(t *testing.T) {
	net := transport.NewLoopback()
	lis, err := net.Listen("")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	w := cluster.NewWorker(lis, cluster.WorkerConfig{Sessions: 1})
	serveDone := make(chan error, 1)
	go func() { serveDone <- w.Serve() }()
	defer w.Close()

	trainOnce(t, net, w.Addr())
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestWorkerObservabilityFlags drives the binary's worker with every
// observability flag at once: a ring session against it must leave a
// Chrome trace dump in -trace-dir, the -debug-addr /metrics page must
// serve the session counters, and -net-stats must print the peer
// data-plane totals at exit (a single-worker ring still dials its peer
// mesh over TCP, so the meter sees real traffic).
func TestWorkerObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	w, err := newWorker([]string{"-listen", "127.0.0.1:0", "-sessions", "1", "-quiet",
		"-trace-dir", dir, "-net-stats", "-debug-addr", "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatalf("newWorker: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- w.Serve() }()
	defer w.Close()

	tiny := distill.DefaultTinyConfig()
	data, batches := tinyData(t, tiny)
	bench := distill.NewTinyWorkbench(tiny)
	plan := sched.Plan{Name: "hybrid", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2, 3}},
	}}
	if _, err := cluster.Run(transport.TCP{}, []string{w.Addr()}, bench, batches,
		cluster.Config{Plan: plan, DPU: true, LR: 0.05, Momentum: 0.9, Topology: "ring",
			Spec: cluster.TinySpec(tiny), Data: data}); err != nil {
		t.Fatalf("ring run against observed worker: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	files, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if len(files) != 1 {
		t.Fatalf("want one trace dump in %s, got %v", dir, files)
	}

	// The debug server outlives Serve until finish(); scrape /metrics now.
	banner := out.String()
	i := strings.Index(banner, "debug server on http://")
	if i < 0 {
		t.Fatalf("debug banner missing:\n%s", banner)
	}
	addr := banner[i+len("debug server on http://"):]
	addr = addr[:strings.IndexByte(addr, ' ')]
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sessions_completed 1", "device_steps", "busy_student_bwd_ns", "peer data plane: sent"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	w.finish()
	if !strings.Contains(out.String(), "net: peer data plane: sent") {
		t.Fatalf("-net-stats totals missing at exit:\n%s", out.String())
	}
}

// TestHelpPrintsUsage: -h must print flag documentation and surface
// flag.ErrHelp (main exits 0 on it).
func TestHelpPrintsUsage(t *testing.T) {
	var out strings.Builder
	_, err := newWorker([]string{"-h"}, &out)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("newWorker(-h): got %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(out.String(), "-listen") {
		t.Fatalf("-h output missing flag docs:\n%s", out.String())
	}
}
