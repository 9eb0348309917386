// Command pipebd-bench captures the repository's performance baseline as
// machine-readable JSON: the kernel sweep from the shared registry
// (internal/bench — the GEMM family, fused conv layers, the skinny
// batched attention GEMMs, and the numeric engine's pipeline-step rate
// for both the conv and transformer workloads, each on the serial and
// parallel backends), plus the cluster's end-to-end latencies on loopback — a fault-free run,
// the same run with one injected worker kill, a snapshot-interval sweep,
// a durable run persisting its ledger, a
// full coordinator crash + ResumeRun cycle, hub-vs-ring topology traffic
// attribution, a straggler pair (the same throttled-worker run with
// dynamic repartitioning off and on — the -repartition headline), and a
// fault-recovery pair (one identical mid-run link break absorbed by
// resumable reconnect-and-replay versus recovered by a global restart —
// the -retry-budget headline). No report is committed: the repository's
// benchmark of record is `go run ./benchmark`.
//
// Every record carries the GOMAXPROCS it ran under, and -procs sweeps the
// registry suite across several values in one invocation. -compare prints
// per-benchmark deltas against an older report so perf PRs don't eyeball
// JSON.
//
// Usage:
//
//	pipebd-bench -out bench.json -procs 1,4        # full sizes, two widths
//	pipebd-bench -out bench.json -quick            # small sizes for smoke tests
//	pipebd-bench -quick -compare old.json          # run, then print deltas
//	pipebd-bench -in new.json -compare old.json    # compare two existing files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pipebd/internal/bench"
	"pipebd/internal/cluster"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// Record is one benchmark measurement.
type Record struct {
	Name    string `json:"name"`
	Backend string `json:"backend"`
	// Procs is the GOMAXPROCS the measurement ran under. Records in
	// pre-PR5 baselines lack it; readers default those to the report's
	// go_max_procs.
	Procs     int     `json:"procs,omitempty"`
	NsPerOp   float64 `json:"ns_per_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
	N         int     `json:"iterations"`
	// MBPerSec is the data throughput for kernels that declare bytes
	// moved (MatMul); 0 otherwise.
	MBPerSec float64 `json:"mb_per_sec,omitempty"`
	// CoordBytesPerStep / PeerBytesPerStep split a cluster run's
	// steady-state traffic by role (set only by the topology suite):
	// marginal bytes per training step crossing the coordinator's
	// connections vs. the workers' peer connections, measured as a
	// 2×steps run minus a steps run so session-fixed traffic (model
	// broadcast, trained-weight return) cancels. The ring topology's
	// point is the first number collapsing to control-plane size while
	// the second absorbs the data plane.
	CoordBytesPerStep float64 `json:"coord_bytes_per_step,omitempty"`
	PeerBytesPerStep  float64 `json:"peer_bytes_per_step,omitempty"`
}

// Report is the layout of the output file.
type Report struct {
	GoMaxProcs int      `json:"go_max_procs"`
	GoVersion  string   `json:"go_version"`
	Quick      bool     `json:"quick"`
	Records    []Record `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pipebd-bench: %v\n", err)
		os.Exit(2)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pipebd-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	out := fs.String("out", "bench.json", "output JSON path (- for stdout)")
	quick := fs.Bool("quick", false, "small problem sizes (smoke testing)")
	procsFlag := fs.String("procs", "", "comma-separated GOMAXPROCS values to sweep the registry suite across (default: current)")
	compare := fs.String("compare", "", "older report JSON to diff the produced (or -in) report against")
	in := fs.String("in", "", "load an existing report instead of benchmarking (for -compare); suppresses -out")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stdout, "Usage of %s:\n", fs.Name())
			fs.SetOutput(stdout)
			fs.PrintDefaults()
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	hostProcs := runtime.GOMAXPROCS(0)
	report := Report{GoMaxProcs: hostProcs, GoVersion: runtime.Version(), Quick: *quick}

	if *in != "" {
		loaded, err := loadReport(*in)
		if err != nil {
			return err
		}
		report = *loaded
	} else {
		procsList, err := parseProcs(*procsFlag, hostProcs)
		if err != nil {
			return err
		}
		for _, p := range procsList {
			runtime.GOMAXPROCS(p)
			for _, c := range bench.All(*quick) {
				c := c
				res := testing.Benchmark(func(b *testing.B) {
					if c.Bytes > 0 {
						b.SetBytes(c.Bytes)
					}
					c.Run(b)
				})
				report.add(c.Name, c.Backend, p, res)
			}
		}
		// Cluster benches run once, at the widest swept value: they
		// measure transport + engine latency, not kernel scaling.
		widest := procsList[0]
		for _, p := range procsList {
			widest = max(widest, p)
		}
		runtime.GOMAXPROCS(widest)
		clusterSuite(&report, *quick, widest)
		topologySuite(&report, *quick, widest)
		repartitionSuite(&report, *quick, widest)
		runtime.GOMAXPROCS(hostProcs)
	}

	if *compare != "" {
		old, err := loadReport(*compare)
		if err != nil {
			return err
		}
		printCompare(stdout, *compare, old, &report)
	}

	if *in != "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "-" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pipebd-bench: wrote %d benchmarks to %s\n", len(report.Records), *out)
	return nil
}

func parseProcs(s string, def int) ([]int, error) {
	if s == "" {
		return []int{def}, nil
	}
	var list []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -procs value %q", part)
		}
		list = append(list, v)
	}
	return list, nil
}

func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &r, nil
}

// recordKey identifies a benchmark across reports. Records without a
// per-record procs value (pre-PR5 baselines) inherit the report header's.
func recordKey(r Record, rep *Report) string {
	procs := r.Procs
	if procs == 0 {
		procs = rep.GoMaxProcs
	}
	return fmt.Sprintf("%s|%s|%d", r.Name, r.Backend, procs)
}

// printCompare prints per-benchmark deltas between two reports: speedup
// is old/new ns_per_op, so >1 is faster. Benchmarks present on only one
// side are listed separately.
func printCompare(w io.Writer, oldPath string, old, cur *Report) {
	oldByKey := map[string]Record{}
	for _, r := range old.Records {
		oldByKey[recordKey(r, old)] = r
	}
	fmt.Fprintf(w, "comparing against %s (GOMAXPROCS=%d, %s)\n", oldPath, old.GoMaxProcs, old.GoVersion)
	if old.Quick != cur.Quick {
		fmt.Fprintf(w, "warning: quick-mode mismatch (old=%v new=%v); sizes differ\n", old.Quick, cur.Quick)
	}
	fmt.Fprintf(w, "%-52s %-9s %5s %14s %14s %9s\n", "benchmark", "backend", "procs", "old ns/op", "new ns/op", "speedup")
	var missing []string
	for _, r := range cur.Records {
		key := recordKey(r, cur)
		procs := r.Procs
		if procs == 0 {
			procs = cur.GoMaxProcs
		}
		o, ok := oldByKey[key]
		if !ok {
			missing = append(missing, fmt.Sprintf("only in new report: %s/%s@%d", r.Name, r.Backend, procs))
			continue
		}
		delete(oldByKey, key)
		fmt.Fprintf(w, "%-52s %-9s %5d %14.0f %14.0f %8.2fx\n",
			r.Name, r.Backend, procs, o.NsPerOp, r.NsPerOp, o.NsPerOp/r.NsPerOp)
	}
	var stale []string
	for key := range oldByKey {
		stale = append(stale, "only in old report: "+strings.ReplaceAll(key, "|", "/"))
	}
	sort.Strings(stale)
	for _, line := range append(missing, stale...) {
		fmt.Fprintln(w, line)
	}
}

// clusterSuite appends the cluster end-to-end latency benches: a
// fault-free hybrid-plan run, worker-kill recovery, the snapshot-interval
// sweep, a durable (ledger-persisting) run, and a coordinator crash +
// resume cycle.
func clusterSuite(report *Report, quick bool, procs int) {
	stepBatch := 16
	clusterSteps := 6
	if quick {
		stepBatch = 8
		clusterSteps = 3
	}
	clusterBench := func(name string, o clusterBenchOpts) {
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run := newClusterBenchRun(o)
				b.StartTimer()
				if err := run.exec(); err != nil {
					b.Fatalf("cluster bench run %s: %v", name, err)
				}
				b.StopTimer()
				run.close()
			}
		})
		report.add(name, "loopback", procs, res)
	}
	base := clusterBenchOpts{steps: clusterSteps, batch: stepBatch}
	clusterBench(fmt.Sprintf("ClusterRun/hybrid/%dsteps-batch%d", clusterSteps, stepBatch), base)
	killOpts := base
	killOpts.kill = true
	clusterBench(fmt.Sprintf("ClusterRecovery/hybrid/%dsteps-batch%d-one-kill", clusterSteps, stepBatch), killOpts)

	// Snapshot-interval sweep: k = 1 (every step), k = 4, and k = steps
	// ("all": one snapshot at the end of the run). Snapshot traffic falls
	// k-fold as k grows; the remaining cost is the run itself.
	for _, every := range []int{1, 4, clusterSteps} {
		o := base
		o.snapEvery = every
		clusterBench(fmt.Sprintf("ClusterSnapshotInterval/hybrid/%dsteps-batch%d-every-%d",
			clusterSteps, stepBatch, every), o)
	}

	// ClusterDurableRun: the same fault-free run persisting every piece of
	// recovery state to an on-disk ledger — the durability overhead.
	durable := base
	durable.durable = true
	clusterBench(fmt.Sprintf("ClusterDurableRun/hybrid/%dsteps-batch%d", clusterSteps, stepBatch), durable)

	// CoordinatorResume: a durable run is crashed mid-stream (seeded kill,
	// no restart budget), then the timed section restarts the coordinator
	// from the ledger — manifest load, record replay, and the restart of
	// every device from the recovered cut through to completion.
	resumeRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			o := base
			o.kill = true
			o.durable = true
			o.crash = true
			run := newClusterBenchRun(o)
			if err := run.exec(); err == nil {
				b.Fatal("rigged durable run did not crash")
			}
			b.StartTimer()
			if _, _, err := cluster.ResumeRun(run.inner, run.ledgerDir, cluster.ResumeConfig{
				JoinTimeout: 10 * time.Second,
			}); err != nil {
				b.Fatalf("coordinator resume: %v", err)
			}
			b.StopTimer()
			run.close()
		}
	})
	report.add(fmt.Sprintf("CoordinatorResume/hybrid/%dsteps-batch%d", clusterSteps, stepBatch), "loopback", procs, resumeRes)
}

// topologySuite runs the same 4-device plan (a 3-way-split front group
// feeding a single-device tail) on three workers under both topologies
// and attributes the traffic by role: the coordinator's dial network and
// the workers' shared peer dial network each get their own Meter. Under
// the hub every activation and gradient reduction crosses the
// coordinator; under the ring those travel worker-to-worker and the
// coordinator keeps only batches, losses, and barriers — the
// coord_bytes_per_step column is the PR's headline number. Per-step
// bytes are marginal (a 2×steps run minus a steps run), so the
// session-fixed model broadcast and trained-weight return — identical
// under both topologies — cancel out of the steady-state figure.
func topologySuite(report *Report, quick bool, procs int) {
	steps, batch := 6, 18
	if quick {
		steps, batch = 3, 12
	}
	p := sched.Plan{Name: "dp3-tail", Groups: []sched.Group{
		{Devices: []int{0, 1, 2}, Blocks: []int{0, 1}},
		{Devices: []int{3}, Blocks: []int{2, 3}},
	}}
	tiny := distill.DefaultTinyConfig()
	data := dataset.NewRandom(rand.New(rand.NewSource(5)), 2*steps*batch, 3, tiny.Height, tiny.Width, 4)
	batches := data.Batches(batch)

	// runOnce executes one fresh 3-worker cluster run of nb batches under
	// topo, metering coordinator and peer dials separately. With a non-nil
	// b only the Run call is timed.
	runOnce := func(topo string, nb int, b *testing.B) (coordBytes, peerBytes int64) {
		inner := transport.NewLoopback()
		coordMeter := transport.NewMeter(inner)
		peerMeter := transport.NewMeter(inner)
		var addrs []string
		var workers []*cluster.Worker
		done := make(chan struct{})
		var wg sync.WaitGroup
		for j := 0; j < 3; j++ {
			lis, err := inner.Listen("")
			if err != nil {
				panic(err)
			}
			w := cluster.NewWorker(lis, cluster.WorkerConfig{Sessions: 1, Dial: peerMeter})
			workers = append(workers, w)
			addrs = append(addrs, w.Addr())
			wg.Add(1)
			go func() { defer wg.Done(); w.Serve() }()
		}
		go func() { wg.Wait(); close(done) }()
		wb := distill.NewTinyWorkbench(tiny)
		cfg := cluster.Config{
			Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
			Topology: topo, Spec: cluster.TinySpec(tiny),
			// Ring workers regenerate the batch schedule from this recipe
			// instead of receiving tensors, so the coordinator's marginal
			// traffic is pure control plane.
			Data: wire.DataSpec{Seed: 5, N: 2 * steps * batch, C: 3,
				H: tiny.Height, W: tiny.Width, Classes: 4, Batch: batch},
		}
		if b != nil {
			b.StartTimer()
		}
		_, err := cluster.Run(coordMeter, addrs, wb, batches[:nb], cfg)
		if b != nil {
			b.StopTimer()
		}
		if err != nil {
			panic(fmt.Sprintf("topology bench (%s, %d steps): %v", topo, nb, err))
		}
		coordBytes = coordMeter.Totals().Bytes()
		peerBytes = peerMeter.Totals().Bytes()
		for _, w := range workers {
			w.Close()
		}
		<-done
		return coordBytes, peerBytes
	}

	for _, topo := range []string{"hub", "ring"} {
		res := testing.Benchmark(func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				runOnce(topo, steps, b)
			}
		})
		report.add(fmt.Sprintf("ClusterTopology/%s/dp3-tail-%dsteps-batch%d", topo, steps, batch), "loopback", procs, res)
		c1, p1 := runOnce(topo, steps, nil)
		c2, p2 := runOnce(topo, 2*steps, nil)
		rec := &report.Records[len(report.Records)-1]
		rec.CoordBytesPerStep = float64(c2-c1) / float64(steps)
		rec.PeerBytesPerStep = float64(p2-p1) / float64(steps)
	}
}

// repartitionSuite measures what dynamic repartitioning buys. The same
// straggler-limited ring run — three workers, the first one's compute
// throttled 4x (bit-identical, just slower), under a front-loaded
// all-unsplit plan — is timed twice: with the controller off, the whole
// synchronous pipeline runs at the straggler's pace for every step; with
// it on, a planned mid-run cut sheds the straggler's extra block onto a
// fast sibling and the steady-state step latency recovers. Both runs
// produce identical bits by construction, so the delta between the two
// records is pure wall-clock — the headline number for -repartition.
func repartitionSuite(report *Report, quick bool, procs int) {
	steps, batch := 12, 8
	if quick {
		steps, batch = 6, 4
	}
	const factor = 4
	p := sched.Plan{Name: "lopsided", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0, 1}},
		{Devices: []int{1}, Blocks: []int{2}},
		{Devices: []int{2}, Blocks: []int{3}},
	}}
	tiny := distill.DefaultTinyConfig()
	data := dataset.NewRandom(rand.New(rand.NewSource(5)), steps*batch, 3, tiny.Height, tiny.Width, 4)
	batches := data.Batches(batch)

	runOnce := func(repart bool, b *testing.B) {
		inner := transport.NewLoopback()
		var addrs []string
		var workers []*cluster.Worker
		done := make(chan struct{})
		var wg sync.WaitGroup
		for j := 0; j < 3; j++ {
			lis, err := inner.Listen("")
			if err != nil {
				panic(err)
			}
			cfg := cluster.WorkerConfig{Sessions: 1, Rejoin: true, Dial: inner}
			if j == 0 {
				cfg.Backend = tensor.NewThrottled(tensor.Serial{}, factor)
			}
			w := cluster.NewWorker(lis, cfg)
			workers = append(workers, w)
			addrs = append(addrs, w.Addr())
			wg.Add(1)
			go func() { defer wg.Done(); w.Serve() }()
		}
		go func() { wg.Wait(); close(done) }()
		wb := distill.NewTinyWorkbench(tiny)
		cfg := cluster.Config{
			Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
			Topology: "ring", Spec: cluster.TinySpec(tiny),
			Repartition: cluster.RepartitionConfig{Enabled: repart,
				Threshold: 0.2, Hysteresis: 2, Warmup: 2},
			JoinTimeout: 10 * time.Second,
		}
		if b != nil {
			b.StartTimer()
		}
		_, err := cluster.Run(inner, addrs, wb, batches, cfg)
		if b != nil {
			b.StopTimer()
		}
		if err != nil {
			panic(fmt.Sprintf("repartition bench (repart=%v): %v", repart, err))
		}
		for _, w := range workers {
			w.Close()
		}
		<-done
	}

	for _, repart := range []bool{false, true} {
		mode := "static"
		if repart {
			mode = "repartition"
		}
		res := testing.Benchmark(func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				runOnce(repart, b)
			}
		})
		report.add(fmt.Sprintf("ClusterStraggler/%s/lopsided-%dsteps-batch%d-slow%d",
			mode, steps, batch, factor), "loopback", procs, res)
	}
}

// clusterBenchOpts selects a prepared loopback cluster's shape: a chaos
// kill of the second-group worker at the middle step (recovered within
// the budget, or — with crash — failing a durable run so ResumeRun can be
// timed), the snapshot policy, and on-disk ledger persistence.
type clusterBenchOpts struct {
	steps, batch int
	kill         bool
	snapEvery    int
	durable      bool
	crash        bool // no restart budget: the kill fails the run
}

// clusterBenchRun is one prepared loopback cluster (2 workers, hybrid
// plan) ready to execute.
type clusterBenchRun struct {
	inner     transport.Network
	net       transport.Network
	addrs     []string
	workers   []*cluster.Worker
	batches   []dataset.Batch
	cfg       cluster.Config
	ledgerDir string
	done      chan struct{}
}

func newClusterBenchRun(o clusterBenchOpts) *clusterBenchRun {
	tiny := distill.DefaultTinyConfig()
	data := dataset.NewRandom(rand.New(rand.NewSource(5)), o.steps*o.batch, 3, tiny.Height, tiny.Width, 4)
	inner := transport.NewLoopback()
	r := &clusterBenchRun{
		inner:   inner,
		batches: data.Batches(o.batch),
		done:    make(chan struct{}),
		cfg: cluster.Config{
			Plan: sched.Plan{Name: "hybrid", Groups: []sched.Group{
				{Devices: []int{0, 1}, Blocks: []int{0, 1}},
				{Devices: []int{2}, Blocks: []int{2, 3}},
			}},
			DPU: true, LR: 0.05, Momentum: 0.9,
			Spec:        cluster.TinySpec(tiny),
			MaxRestarts: 1, // snapshots on in every variant: deltas isolate the mechanism under test
			Snapshot:    cluster.SnapshotPolicy{Interval: o.snapEvery},
		},
	}
	if o.crash {
		r.cfg.MaxRestarts = 0
	}
	if o.durable {
		dir, err := os.MkdirTemp("", "pipebd-bench-ledger-*")
		if err != nil {
			panic(err)
		}
		r.ledgerDir = dir
		r.cfg.LedgerDir = dir
	}
	r.net = inner
	if o.kill {
		r.net = transport.NewChaos(inner, transport.Fault{
			Trigger: transport.Trigger{Conn: 1, Op: transport.OpRecv,
				Kind: wire.KindLosses, Step: int32(o.steps / 2), Count: 1},
			Action: transport.ActKill,
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		lis, err := inner.Listen("")
		if err != nil {
			panic(err)
		}
		w := cluster.NewWorker(lis, cluster.WorkerConfig{Sessions: 1, Rejoin: true})
		r.workers = append(r.workers, w)
		r.addrs = append(r.addrs, w.Addr())
		wg.Add(1)
		go func() { defer wg.Done(); w.Serve() }()
	}
	go func() { wg.Wait(); close(r.done) }()
	return r
}

func (r *clusterBenchRun) exec() error {
	w := distill.NewTinyWorkbench(distill.DefaultTinyConfig())
	_, err := cluster.Run(r.net, r.addrs, w, r.batches, r.cfg)
	return err
}

func (r *clusterBenchRun) close() {
	for _, w := range r.workers {
		w.Close()
	}
	<-r.done
	if r.ledgerDir != "" {
		os.RemoveAll(r.ledgerDir)
	}
}

func (r *Report) add(name, backend string, procs int, res testing.BenchmarkResult) {
	nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
	rec := Record{
		Name:      name,
		Backend:   backend,
		Procs:     procs,
		NsPerOp:   nsPerOp,
		OpsPerSec: 1e9 / nsPerOp,
		N:         res.N,
	}
	if res.Bytes > 0 {
		rec.MBPerSec = float64(res.Bytes) * float64(res.N) / res.T.Seconds() / 1e6
	}
	r.Records = append(r.Records, rec)
}
