package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
)

// TestRingTracingShipsSpans is the cluster half of the observability
// contract: a traced ring run ships every device's span batches to the
// coordinator's sink, the collected timeline covers the paper's phase
// taxonomy — forward, backward, all-reduce collective phases, peer-ack
// waits — and recording it all changes nothing about the trajectory.
func TestRingTracingShipsSpans(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(4, 12)
	// dp3: a 3-way split group (true reduce-scatter + all-gather ring)
	// feeding a single-device tail.
	p := plan("dp3", g([]int{0, 1, 2}, []int{0, 1}), g([]int{3}, []int{2, 3}))
	ref := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	net := transport.NewLoopback()
	addrs := ringWorkers(t, net, 3, WorkerConfig{Sessions: 1})
	collect := obs.NewCollector()
	metrics := obs.NewMetrics()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	res, err := Run(net, addrs, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec:      TinySpec(distill.DefaultTinyConfig()),
		Trace:     true,
		TraceSink: collect.Add,
		Metrics:   metrics})
	if err != nil {
		t.Fatalf("traced ring run: %v", err)
	}
	lossesBitIdentical(t, "traced ring", res, refRes)
	weightsBitIdentical(t, "traced ring", w, ref)

	names, byTrack := collect.Tracks()
	for _, want := range []string{"dev0", "dev1", "dev2", "dev3"} {
		if _, ok := byTrack[want]; !ok {
			t.Fatalf("no spans collected for track %s (have %v)", want, names)
		}
	}
	seen := map[string]map[string]bool{}
	for tr, spans := range byTrack {
		seen[tr] = map[string]bool{}
		for _, s := range spans {
			seen[tr][s.Name] = true
		}
	}
	// Split-group members run the full taxonomy; the tail device relays
	// nothing onward and reduces nothing.
	for _, tr := range []string{"dev0", "dev1", "dev2"} {
		for _, span := range []string{"teacher_fwd", "student_fwd", "student_bwd",
			"sgd_update", "send_output", "peer_ack_wait", "allreduce",
			"reduce_scatter", "all_gather"} {
			if !seen[tr][span] {
				t.Fatalf("track %s missing span %q (saw %v)", tr, span, seen[tr])
			}
		}
	}
	for _, span := range []string{"teacher_fwd", "student_fwd", "student_bwd", "recv_act"} {
		if !seen["dev3"][span] {
			t.Fatalf("track dev3 missing span %q (saw %v)", span, seen["dev3"])
		}
	}
	if v := metrics.Counter("steps_completed").Load(); v != int64(len(batches)) {
		t.Fatalf("steps_completed = %d, want %d", v, len(batches))
	}
}

// TestHubTracingAndCoordinatorTrack covers the hub data plane plus the
// coordinator's own track: a durable traced run must surface
// ledger_append spans under the "coordinator" track and keep the ledger
// byte counters live.
func TestHubTracingAndCoordinatorTrack(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(3, 8)
	p := hybridPlan()
	net := transport.NewLoopback()
	addrs := startWorkers(t, net, 2, WorkerConfig{Sessions: 1})
	collect := obs.NewCollector()
	metrics := obs.NewMetrics()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := Run(net, addrs, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9,
		Spec:      TinySpec(distill.DefaultTinyConfig()),
		LedgerDir: filepath.Join(t.TempDir(), "led"),
		Trace:     true,
		TraceSink: collect.Add,
		Metrics:   metrics})
	if err != nil {
		t.Fatalf("traced hub run: %v", err)
	}
	_, byTrack := collect.Tracks()
	found := false
	for _, s := range byTrack["coordinator"] {
		if s.Name == "ledger_append" && s.Cat == obs.CatLedger {
			found = true
		}
	}
	if !found {
		t.Fatalf("coordinator track has no ledger_append span; tracks: %s", collect)
	}
	for _, span := range []string{"recv_input", "send_output", "allreduce", "snapshot_write"} {
		if !hasSpan(byTrack["dev0"], span) {
			t.Fatalf("hub track dev0 missing span %q", span)
		}
	}
	if metrics.Counter("ledger_records").Load() == 0 || metrics.Counter("ledger_bytes").Load() == 0 {
		t.Fatal("ledger counters never advanced")
	}
	if metrics.Counter("snapshots").Load() == 0 {
		t.Fatal("snapshot counter never advanced")
	}
}

func hasSpan(spans []obs.Span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestTraceWithoutSinkRejected: asking for spans with nowhere to deliver
// them is a configuration error, caught before any session starts.
func TestTraceWithoutSinkRejected(t *testing.T) {
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := Run(transport.NewLoopback(), []string{"x"}, w, tinyBatches(2, 8),
		Config{Plan: hybridPlan(), DPU: true, LR: 0.05,
			Spec: TinySpec(distill.DefaultTinyConfig()), Trace: true})
	if err == nil || !strings.Contains(err.Error(), "TraceSink") {
		t.Fatalf("got %v, want TraceSink configuration error", err)
	}
}

// TestWorkerTraceDirDump: a worker with TraceDir traces its sessions
// locally — even when the coordinator never asked for spans — and dumps
// a loadable Chrome trace file with one thread-name metadata entry per
// hosted device, while the worker metrics accumulate per-category busy
// time.
func TestWorkerTraceDirDump(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(3, 8)
	p := hybridPlan()
	dir := t.TempDir()
	metrics := obs.NewMetrics()
	net := transport.NewLoopback()
	lis, err := net.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	worker := NewWorker(lis, WorkerConfig{Sessions: 1, Dial: net,
		TraceDir: dir, Metrics: metrics})
	served := make(chan error, 1)
	go func() { served <- worker.Serve() }()
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, runErr := Run(net, []string{worker.Addr()}, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec: TinySpec(distill.DefaultTinyConfig())})
	worker.Close()
	// Serve returns only after its one session did, and the session writes
	// the dump before it returns — so the file is complete from here on.
	if err := <-served; err != nil {
		t.Fatalf("worker serve: %v", err)
	}
	if runErr != nil {
		t.Fatalf("run with worker-local tracing: %v", runErr)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if len(files) != 1 {
		t.Fatalf("want one trace dump in %s, got %v", dir, files)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace dump is not valid JSON: %v", err)
	}
	threads := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			threads++
		}
	}
	if threads != 3 {
		t.Fatalf("trace dump names %d tracks, want 3 (one per device)", threads)
	}
	if metrics.Counter("busy_student_bwd_ns").Load() <= 0 {
		t.Fatal("worker metrics never accumulated student_bwd busy time")
	}
	if metrics.Counter("sessions_completed").Load() != 1 {
		t.Fatal("sessions_completed != 1")
	}
}

// TestSpanLossIsCounted: a device track that overflows between two step
// boundaries drops spans; the next flush must surface exactly that many in
// the worker's spans_dropped counter and in the trace-dump collector's
// summary line, once — and a flush with nothing new must add nothing.
func TestSpanLossIsCounted(t *testing.T) {
	metrics := obs.NewMetrics()
	collect := obs.NewCollector()
	worker := NewWorker(nil, WorkerConfig{Metrics: metrics})
	track := obs.NewTracer(true).NewTrack("dev0")
	link := &clusterLink{trace: track, sink: worker.spanSink(collect)}

	track.Begin(obs.CatWait, "kept").End()
	link.flushSpans()
	if got := metrics.Counter("spans_dropped").Load(); got != 0 {
		t.Fatalf("spans_dropped = %d before any overflow", got)
	}
	for track.Dropped() < 7 {
		track.Begin(obs.CatWait, "flood").End()
	}
	link.flushSpans()
	if got := metrics.Counter("spans_dropped").Load(); got != 7 {
		t.Fatalf("spans_dropped = %d after dropping 7 spans", got)
	}
	if sum := collect.String(); !strings.Contains(sum, ", 7 dropped") {
		t.Fatalf("collector summary %q does not report the 7 dropped spans", sum)
	}
	track.Begin(obs.CatWait, "kept").End()
	link.flushSpans()
	if got := metrics.Counter("spans_dropped").Load(); got != 7 {
		t.Fatalf("spans_dropped = %d after a flush with no new drops, want 7", got)
	}
}

// TestMeterConcurrentRingTraffic (satellite): transport.Meter counters
// must stay race-free and monotonic while the full peer mesh of a 3-way
// split hammers them from many connections, and must never go backwards
// across a chaos kill and ring restart.
func TestMeterConcurrentRingTraffic(t *testing.T) {
	leakCheck(t)
	batches := tinyBatches(5, 12)
	p := plan("dp3", g([]int{0, 1, 2}, []int{0, 1}), g([]int{3}, []int{2, 3}))
	inner := transport.NewLoopback()
	chaos := transport.NewChaos(inner, transport.Fault{
		Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
			Kind: wire.KindRingSegment, Step: 2, Count: 1},
		Action: transport.ActKill,
	})
	peerMeter := transport.NewMeter(chaos)
	coordMeter := transport.NewMeter(inner)

	// A monitor goroutine polls the counters concurrently with the run,
	// asserting monotonicity; -race turns any unsynchronized counter
	// update into a failure.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var violation error
	go func() {
		defer wg.Done()
		var last transport.Totals
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := peerMeter.Totals()
			if cur.SentBytes < last.SentBytes || cur.RecvBytes < last.RecvBytes ||
				cur.SentFrames < last.SentFrames || cur.RecvFrames < last.RecvFrames {
				violation = errMeterRegressed
				return
			}
			last = cur
		}
	}()

	addrs := startWorkers(t, inner, 3, WorkerConfig{Rejoin: true, Sessions: 1, Dial: peerMeter})
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := Run(coordMeter, addrs, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Topology: "ring",
		Spec:        TinySpec(distill.DefaultTinyConfig()),
		MaxRestarts: 2})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("metered chaos ring run: %v", err)
	}
	if violation != nil {
		t.Fatal(violation)
	}
	pt, ct := peerMeter.Totals(), coordMeter.Totals()
	if pt.SentBytes == 0 || pt.RecvBytes == 0 {
		t.Fatalf("peer meter saw no traffic: %+v", pt)
	}
	if ct.SentBytes == 0 {
		t.Fatalf("coordinator meter saw no traffic: %+v", ct)
	}
	if pt.SentFrames < ct.SentFrames {
		t.Fatalf("peer data plane (%d frames) should dominate the control plane (%d frames)",
			pt.SentFrames, ct.SentFrames)
	}
}

var errMeterRegressed = &meterRegression{}

type meterRegression struct{}

func (*meterRegression) Error() string { return "meter totals went backwards" }
