package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/hw"
	"pipebd/internal/tensor"
)

// run parses args and runs the mode they name, as main does.
func run(args []string, stdout io.Writer) error {
	c, pos, err := parse(args, stdout)
	if err != nil {
		return err
	}
	return c.run(pos, stdout)
}

// TestFlagOutsideItsModeFailsToParse: every flag of every mode fails to
// parse in each mode that does not read it, and the retired top-level
// mode switches name no mode.
func TestFlagOutsideItsModeFailsToParse(t *testing.T) {
	owners := map[string][]string{}
	for _, m := range modes {
		fs, _ := m.flagSet()
		fs.VisitAll(func(f *flag.Flag) { owners[f.Name] = append(owners[f.Name], m.name) })
	}
	for _, m := range modes {
		for name, in := range owners {
			if slices.Contains(in, m.name) {
				continue
			}
			_, _, err := parse([]string{m.name, "DIR", "-" + name, "1"}, io.Discard)
			if want := "flag provided but not defined: -" + name; err == nil || err.Error() != want {
				t.Errorf("pipebd %s -%s (a flag of %v): got %v, want %q", m.name, name, in, err, want)
			}
		}
	}
	for _, args := range [][]string{{"-cluster", "127.0.0.1:7710"}, {"-resume", "DIR"}, {"-compact-ledger", "DIR"}, {"-exp", "fig4"}, {}} {
		if _, _, err := parse(args, io.Discard); err == nil || !strings.Contains(err.Error(), "usage: pipebd MODE") {
			t.Errorf("parse(%q): got %v, want the mode list", args, err)
		}
	}
}

// TestModeArguments: each mode takes its positional arguments wherever
// they fall among its flags, and rejects too few or too many.
func TestModeArguments(t *testing.T) {
	_, pos, err := parse([]string{"resume", "-verify", "DIR", "-max-restarts", "2", "a:1,b:2"}, io.Discard)
	if err != nil || !slices.Equal(pos, []string{"DIR", "a:1,b:2"}) {
		t.Fatalf("interleaved resume arguments: got %q, %v", pos, err)
	}
	for _, args := range [][]string{{"cluster"}, {"cluster", "a:1", "b:2"}, {"compact"}, {"resume"},
		{"resume", "DIR", "a:1", "b:2"}, {"exp", "fig2", "fig4"}, {"profile", "stray"}, {"worker", "stray"}} {
		if _, _, err := parse(args, io.Discard); err == nil || !strings.Contains(err.Error(), "usage: pipebd "+args[0]) {
			t.Errorf("parse(%q): got %v, want a usage error", args, err)
		}
	}
}

// TestHelpPrintsModes: help lists every mode and surfaces flag.ErrHelp
// (main exits 0 on it).
func TestHelpPrintsModes(t *testing.T) {
	var out strings.Builder
	if _, _, err := parse([]string{"help"}, &out); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("help: got %v, want flag.ErrHelp", err)
	}
	for _, m := range modes {
		if !strings.Contains(out.String(), "  "+m.name+" ") {
			t.Errorf("help output missing mode %s:\n%s", m.name, out.String())
		}
	}
}

// TestExpRunsNamedExperiment runs one experiment with its chart and
// rejects a name no experiment has.
func TestExpRunsNamedExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"exp", "fig2", "-system", "2080ti", "-batch", "128", "-chart", "-backend", "serial"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "Fig. 2 —") || !strings.Contains(got, "legend:") {
		t.Fatalf("fig2 on 2080ti printed:\n%s", got)
	}
	for _, args := range [][]string{{"exp", "fig3"}, {"exp", "fig2", "-backend", "gpu"}, {"exp", "fig2", "-batch", "2"}} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}

// TestCheckBatch: experiment mode rejects a -batch that is not positive
// or leaves one of the system's devices without a sample, and accepts
// every batch from the device count up.
func TestCheckBatch(t *testing.T) {
	for _, sys := range []hw.System{hw.A6000x4(), hw.RTX2080Tix4()} {
		for _, batch := range []int{-5, 0, 1, sys.NumDevices() - 1} {
			if err := checkBatch(batch, sys); err == nil || !strings.Contains(err.Error(), "-batch") {
				t.Errorf("%s: checkBatch(%d) = %v, want a -batch error", sys.Name, batch, err)
			}
		}
		for _, batch := range []int{sys.NumDevices(), 256} {
			if err := checkBatch(batch, sys); err != nil {
				t.Errorf("%s: checkBatch(%d): %v", sys.Name, batch, err)
			}
		}
	}
}

// TestClusterOptionsValidate pins the flag-combination checks of cluster
// mode that the library does not make itself.
func TestClusterOptionsValidate(t *testing.T) {
	good := clusterOptions{Workers: []string{"w"}, PlanName: "hybrid", Steps: 4, Batch: 8}
	if err := good.validate(); err != nil {
		t.Fatalf("good options rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*clusterOptions)
		want string
	}{
		{"no workers", func(o *clusterOptions) { o.Workers = nil }, "worker"},
		{"zero steps", func(o *clusterOptions) { o.Steps = 0 }, "positive"},
		{"zero batch", func(o *clusterOptions) { o.Batch = 0 }, "positive"},
		{"chaos beyond budget", func(o *clusterOptions) { o.ChaosKills = 2; o.MaxRestarts = 1 }, "chaos-kills"},
		{"fsync without ledger", func(o *clusterOptions) { o.Fsync.Mode = ledger.SyncAlways }, "-fsync"},
		{"flaps without budget", func(o *clusterOptions) { o.ChaosFlaps = 1 }, "-retry-budget"},
		{"partition outlasting budget", func(o *clusterOptions) { o.ChaosPart, o.RetryBudget = 2, 1 }, "heal"},
	}
	for _, c := range cases {
		o := good
		c.mut(&o)
		err := o.validate()
		if err == nil {
			t.Errorf("%s: validate succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestSnapshotIntervalFollowsTheLibrary: the snapshot policy has one
// rule, the library's. Repartitioning turns fault tolerance on, so
// -snapshot-interval with -repartition alone passes the CLI's checks; a
// run with none of the four things that turn it on fails with the
// library's error before any worker is dialed.
func TestSnapshotIntervalFollowsTheLibrary(t *testing.T) {
	c, pos, err := parse([]string{"cluster", "127.0.0.1:7710,127.0.0.1:7711,127.0.0.1:7712",
		"-cluster-plan", "tr3", "-repartition", "-snapshot-interval", "2"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	o := c.(*clusterOptions)
	o.Workers = strings.Split(pos[0], ",")
	if err := o.validate(); err != nil {
		t.Fatalf("-repartition -snapshot-interval 2 rejected: %v", err)
	}
	// Port 1 refuses connections: a dial would fail with another error.
	for _, args := range [][]string{
		{"cluster", "127.0.0.1:1", "-snapshot-interval", "2"},
		{"cluster", "127.0.0.1:1", "-snapshot-interval", "2", "-topology", "hub", "-retry-budget", "1s"},
	} {
		err := run(args, io.Discard)
		if want := "needs fault tolerance (MaxRestarts > 0, LedgerDir, Repartition, or a ring run with RetryBudget)"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%q): got %v, want the library's %q", args, err, want)
		}
	}
	if err := run([]string{"cluster", "127.0.0.1:1", "-snapshot-interval", "-1"}, io.Discard); err == nil || !strings.Contains(err.Error(), "snapshot interval must be >= 0") {
		t.Errorf("-snapshot-interval -1: got %v, want the library's range error", err)
	}
}

// TestRunResumeBadLedgerDir: resume without a directory is a usage error,
// and against a missing one fails with a clean error, not a hang dialing
// workers.
func TestRunResumeBadLedgerDir(t *testing.T) {
	if err := run([]string{"resume"}, io.Discard); err == nil || !strings.Contains(err.Error(), "DIR") {
		t.Fatalf("no dir: got %v", err)
	}
	err := run([]string{"resume", filepath.Join(t.TempDir(), "absent")}, io.Discard)
	if err == nil {
		t.Fatal("resume of absent directory succeeded")
	}
	if !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("error should point at the missing manifest: %v", err)
	}
}

// startTCPWorkers boots n real TCP worker servers in-process (the server
// the worker mode wraps) with rejoin semantics, so a crashed coordinator
// session does not consume their session budget. It returns their
// addresses as one cluster argument.
func startTCPWorkers(t *testing.T, n int) string {
	t.Helper()
	addrs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		lis, err := transport.TCP{}.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		w := cluster.NewWorker(lis, cluster.WorkerConfig{Sessions: 1, Rejoin: true, Dial: transport.TCP{}})
		addrs[i] = w.Addr()
		wg.Add(1)
		go func() { defer wg.Done(); w.Serve() }()
		t.Cleanup(func() { w.Close() })
	}
	t.Cleanup(wg.Wait)
	return strings.Join(addrs, ",")
}

// crashDurableRun runs a durable cluster run that dies mid-stream (a
// seeded chaos kill with no restart budget, the coordinator-crash
// stand-in) and returns its ledger directory.
func crashDurableRun(t *testing.T, addrs string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ledger")
	var out strings.Builder
	err := run([]string{"cluster", addrs, "-cluster-steps", "6", "-topology", "hub",
		"-ledger", dir, "-snapshot-interval", "2", "-fsync", "interval:2", "-chaos-kills", "1", "-chaos-seed", "7"}, &out)
	if err == nil {
		t.Fatalf("rigged cluster run finished; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "durable run: ledger at "+dir) {
		t.Fatalf("ledger banner missing; output:\n%s", out.String())
	}
	return dir
}

// TestClusterCrashThenResumeEndToEnd drives the two modes the way an
// operator would: a durable cluster run dies mid-stream, then resume
// finishes it from the ledger and -verify proves the result bit-identical
// to the in-process pipeline. A resume expecting another plan than the
// ledger holds fails before it dials.
func TestClusterCrashThenResumeEndToEnd(t *testing.T) {
	addrs := startTCPWorkers(t, 2)
	dir := crashDurableRun(t, addrs)

	if err := run([]string{"resume", dir, "-cluster-plan", "tr"}, io.Discard); err == nil || !strings.Contains(err.Error(), `not "tr"`) {
		t.Fatalf("resume expecting plan tr of a hybrid ledger: got %v", err)
	}
	var out strings.Builder
	if err := run([]string{"resume", dir, addrs, "-cluster-plan", "hybrid", "-cluster-model", "tiny", "-cluster-steps", "6",
		"-topology", "hub", "-max-restarts", "1", "-cluster-heartbeat", "1s", "-fsync", "always", "-verify"}, &out); err != nil {
		t.Fatalf("resume failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify OK") {
		t.Fatalf("verify did not report success; output:\n%s", out.String())
	}
}

// TestCompactThenResumeEndToEnd: the ledger of a crashed run, compacted,
// still resumes bit-identically, and the resumed run's summary counts the
// repartitions its armed controller executed, as a cluster run's does.
func TestCompactThenResumeEndToEnd(t *testing.T) {
	addrs := startTCPWorkers(t, 2)
	dir := crashDurableRun(t, addrs)
	var out strings.Builder
	if err := run([]string{"compact", dir}, &out); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if !strings.Contains(out.String(), "compacted ledger "+dir) {
		t.Fatalf("compact printed:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"resume", dir, "-repartition", "-verify"}, &out); err != nil {
		t.Fatalf("resume of compacted ledger failed: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"pipebd: repartitions executed: 0\n", "verify OK"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("resume did not print %q; output:\n%s", want, out.String())
		}
	}
}

// TestClusterRingEndToEnd drives cluster mode with its default ring
// topology over real TCP workers — peer connections dialed worker-to-
// worker — on the parallel backend, and -verify proves the result
// bit-identical to the in-process pipeline.
func TestClusterRingEndToEnd(t *testing.T) {
	addrs := startTCPWorkers(t, 2)
	prev := tensor.Default()
	t.Cleanup(func() { tensor.SetDefault(prev) })
	var out strings.Builder
	if err := run([]string{"cluster", addrs, "-cluster-plan", "hybrid", "-cluster-steps", "4", "-backend", "parallel", "-verify"}, &out); err != nil {
		t.Fatalf("ring cluster run failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "topology=ring") {
		t.Fatalf("banner missing topology; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "verify OK") {
		t.Fatalf("verify did not report success; output:\n%s", out.String())
	}
}

// TestClusterTraceOutEndToEnd is the acceptance run of the observability
// layer: a 3-worker TCP ring with -trace-out must stay bit-identical,
// produce a Chrome trace whose device tracks cover forward, backward,
// all-reduce, and peer-ack-wait spans, print the measured-vs-modeled
// utilization report, and (with -net-stats) the coordinator byte totals.
func TestClusterTraceOutEndToEnd(t *testing.T) {
	addrs := startTCPWorkers(t, 3)
	traceFile := filepath.Join(t.TempDir(), "run.json")
	var out strings.Builder
	// dp3: 3-way split front group — the plan whose ring runs a true
	// reduce-scatter + all-gather. Batch 12 divides by both groups, so
	// the modeled side of the report is exercised too.
	err := run([]string{"cluster", addrs, "-cluster-plan", "dp3", "-cluster-steps", "3", "-cluster-batch", "12",
		"-topology", "ring", "-verify", "-trace-out", traceFile, "-net-stats", "-debug-addr", "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatalf("traced ring run failed: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"verify OK",
		"wrote Chrome trace",
		"measured utilization",
		"measured vs modeled",
		"net: coordinator control plane: sent",
		"debug server on http://",
	} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	tracks := map[string]bool{}
	spans := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if n, ok := ev.Args["name"].(string); ok {
				tracks[n] = true
			}
		case "X":
			spans[ev.Name] = true
		}
	}
	for _, dev := range []string{"dev0", "dev1", "dev2", "dev3"} {
		if !tracks[dev] {
			t.Fatalf("trace has no %s track (tracks: %v)", dev, tracks)
		}
	}
	for _, span := range []string{"teacher_fwd", "student_fwd", "student_bwd",
		"allreduce", "reduce_scatter", "all_gather", "peer_ack_wait"} {
		if !spans[span] {
			t.Fatalf("trace missing %q spans (have: %v)", span, spans)
		}
	}
}
