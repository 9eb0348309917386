package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/transport"
)

// TestClusterOptionsValidate pins the flag-combination checks of cluster
// mode, including the new snapshot-policy flags.
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
		{"negative interval", func(o *clusterOptions) { o.MaxRestarts = 1; o.SnapInterval = -1 }, "snapshot-interval"},
		{"policy without recovery", func(o *clusterOptions) { o.SnapInterval = 3 }, "max-restarts or -ledger"},
		{"chaos beyond budget", func(o *clusterOptions) { o.ChaosKills = 2; o.MaxRestarts = 1 }, "chaos-kills"},
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

	// Policy flags become valid once a recovery mechanism is configured.
	o := good
	o.SnapInterval, o.MaxRestarts = 3, 1
	if err := o.validate(); err != nil {
		t.Fatalf("policy with -max-restarts rejected: %v", err)
	}
	o = good
	o.SnapInterval, o.Ledger = 3, "/tmp/led"
	if err := o.validate(); err != nil {
		t.Fatalf("policy with -ledger rejected: %v", err)
	}
}

// TestCheckModeFlags: a cluster-mode flag set in a mode that would ignore
// it is an error naming every such flag in sorted order; -cluster accepts
// them all, -resume those it reads.
func TestCheckModeFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	for name, resumeReads := range clusterModeFlags {
		err := checkModeFlags(set(name, "exp"), false, false)
		want := "-" + name + ": set without -cluster"
		if resumeReads {
			want += " or -resume"
		}
		if err == nil || err.Error() != want {
			t.Errorf("-%s alone: got %v, want %q", name, err, want)
		}
		if err := checkModeFlags(set(name), true, false); err != nil {
			t.Errorf("-%s with -cluster: %v", name, err)
		}
		if err := checkModeFlags(set(name), false, true); (err == nil) != resumeReads {
			t.Errorf("-%s with -resume (which reads it: %v): got %v", name, resumeReads, err)
		}
	}
	cases := []struct {
		flags           []string
		cluster, resume bool
		want            string // "" for nil
	}{
		{[]string{"exp", "quick", "backend"}, false, false, ""},
		{[]string{"verify", "max-restarts"}, false, false, "-max-restarts, -verify: set without -cluster or -resume"},
		{[]string{"verify", "ledger", "max-restarts", "chaos-kills"}, false, false,
			"-chaos-kills, -ledger, -max-restarts, -verify: set without -cluster"},
		{[]string{"verify", "ledger", "max-restarts", "chaos-kills"}, true, false, ""},
		{[]string{"verify", "ledger", "max-restarts", "chaos-kills"}, true, true, ""},
		{[]string{"verify", "ledger", "max-restarts", "chaos-kills"}, false, true, "-chaos-kills, -ledger: set without -cluster"},
		{[]string{"verify", "cluster-plan", "fsync"}, false, true, ""},
	}
	for _, c := range cases {
		// Map iteration order differs between calls: the message must not.
		for i := 0; i < 20; i++ {
			got := ""
			if err := checkModeFlags(set(c.flags...), c.cluster, c.resume); err != nil {
				got = err.Error()
			}
			if got != c.want {
				t.Fatalf("%v cluster=%v resume=%v: got %q, want %q", c.flags, c.cluster, c.resume, got, c.want)
			}
		}
	}
}

// TestRunResumeBadLedgerDir: -resume against a missing or empty directory
// must fail with a clean error, not hang dialing workers.
func TestRunResumeBadLedgerDir(t *testing.T) {
	var out strings.Builder
	if err := runResume(&out, resumeOptions{}); err == nil || !strings.Contains(err.Error(), "ledger directory") {
		t.Fatalf("empty dir: got %v", err)
	}
	err := runResume(&out, resumeOptions{Dir: filepath.Join(t.TempDir(), "absent")})
	if err == nil {
		t.Fatal("resume of absent directory succeeded")
	}
	if !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("error should point at the missing manifest: %v", err)
	}
}

// startTCPWorkers boots n real TCP worker servers in-process (the same
// server the pipebd-worker binary wraps) with rejoin semantics, so a
// crashed coordinator session does not consume their session budget.
func startTCPWorkers(t *testing.T, n int) []string {
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
	return addrs
}

// TestClusterCrashThenResumeEndToEnd drives the two CLI entry points the
// way an operator would: a durable cluster run dies mid-stream (seeded
// chaos kill with no restart budget — the coordinator-crash stand-in),
// then -resume finishes it from the ledger and -verify proves the result
// bit-identical to the in-process pipeline.
func TestClusterCrashThenResumeEndToEnd(t *testing.T) {
	addrs := startTCPWorkers(t, 2)
	dir := filepath.Join(t.TempDir(), "ledger")
	var out strings.Builder
	err := runCluster(&out, clusterOptions{
		Workers: addrs, PlanName: "hybrid", Steps: 6, Batch: 8, DPU: true,
		Timeout:      10 * time.Second,
		Ledger:       dir,
		SnapInterval: 2,
		ChaosKills:   1, ChaosSeed: 7,
	})
	if err == nil {
		t.Fatalf("rigged cluster run finished; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "durable run: ledger at "+dir) {
		t.Fatalf("ledger banner missing; output:\n%s", out.String())
	}

	out.Reset()
	if err := runResume(&out, resumeOptions{
		Dir: dir, Timeout: 10 * time.Second, Verify: true,
	}); err != nil {
		t.Fatalf("resume failed: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verify OK") {
		t.Fatalf("verify did not report success; output:\n%s", out.String())
	}
}

// TestClusterRingEndToEnd drives runCluster with the CLI's default ring
// topology over real TCP workers — peer connections dialed worker-to-
// worker — and -verify proves the result bit-identical to the in-process
// pipeline.
func TestClusterRingEndToEnd(t *testing.T) {
	addrs := startTCPWorkers(t, 2)
	var out strings.Builder
	err := runCluster(&out, clusterOptions{
		Workers: addrs, PlanName: "hybrid", Steps: 4, Batch: 8, DPU: true,
		Topology: "ring", Timeout: 10 * time.Second, Verify: true,
	})
	if err != nil {
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
	err := runCluster(&out, clusterOptions{
		// dp3: 3-way split front group — the plan whose ring runs a true
		// reduce-scatter + all-gather. Batch 12 divides by both groups, so
		// the modeled side of the report is exercised too.
		Workers: addrs, PlanName: "dp3", Steps: 3, Batch: 12, DPU: true,
		Topology: "ring", Timeout: 10 * time.Second, Verify: true,
		TraceOut: traceFile, NetStats: true, DebugAddr: "127.0.0.1:0",
	})
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
