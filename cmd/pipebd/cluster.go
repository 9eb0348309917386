package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/model"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
)

// clusterOptions configures the multi-process training mode.
type clusterOptions struct {
	Workers  []string // worker addresses, in device-placement order
	PlanName string   // tr | hybrid | ir
	Model    string   // tiny (default) | transformer
	Steps    int
	Batch    int
	Backend  string
	// Topology selects how peer edges are carried: "ring" (default for
	// the CLI) dials them worker-to-worker, "hub" (or empty) relays every
	// edge through the coordinator.
	Topology string
	Verify   bool // re-run in-process and require bit-identical results
	// MaxRestarts enables fault tolerance: up to this many worker losses
	// restart the run from its global cut instead of failing it.
	MaxRestarts int
	// Heartbeat asks workers for liveness beacons on this interval (the
	// coordinator declares one dead after 4 silent intervals); 0 disables.
	Heartbeat time.Duration
	// Ledger makes the run durable: the coordinator persists its state
	// under this directory so a killed pipebd can restart with -resume.
	Ledger string
	// SnapInterval is the snapshot interval k (0: every step when fault
	// tolerance is on).
	SnapInterval int
	// ChaosKills injects this many seeded connection kills (derived from
	// ChaosSeed) mid-run — the self-test for the recovery path, normally
	// combined with -verify.
	ChaosKills int
	ChaosSeed  int64
	// ChaosFlaps injects this many seeded transient link flaps — the
	// self-test for RetryBudget absorption: every flap must reconnect and
	// replay without consuming a restart.
	ChaosFlaps int
	// ChaosPart injects one healing partition: a link breaks and its
	// address stays unreachable for this duration, forcing the reconnect
	// loop to back off until the partition heals.
	ChaosPart time.Duration
	// RetryBudget arms transient-fault absorption: broken worker and peer
	// links reconnect with exponential backoff and replay their missed
	// frames for up to RetryBudget before the failure escalates to
	// recovery or degrade.
	RetryBudget time.Duration
	// TraceOut enables span tracing across the cluster and writes the
	// collected timeline as Chrome trace-event JSON to this path, then
	// prints the measured-vs-modeled utilization report.
	TraceOut string
	// NetStats prints the coordinator-side transport.Meter byte totals at
	// run end (independent of tracing).
	NetStats bool
	// DebugAddr starts an HTTP debug listener (net/http/pprof plus a
	// plain-text /metrics page) for the duration of the run.
	DebugAddr string
	// Fsync is the ledger record-log durability tier (needs Ledger).
	Fsync ledger.SyncPolicy
	// Repartition arms the measurement-driven runtime repartitioner.
	Repartition bool
}

// validate rejects option combinations before any socket is touched.
func (o clusterOptions) validate() error {
	if len(o.Workers) == 0 {
		return fmt.Errorf("cluster mode needs at least one worker address")
	}
	if o.Steps <= 0 || o.Batch <= 0 {
		return fmt.Errorf("cluster steps and batch must be positive (got %d, %d)", o.Steps, o.Batch)
	}
	if o.SnapInterval < 0 {
		return fmt.Errorf("-snapshot-interval must be >= 0, got %d", o.SnapInterval)
	}
	if o.SnapInterval > 0 && o.MaxRestarts <= 0 && o.Ledger == "" {
		return fmt.Errorf("-snapshot-interval needs -max-restarts or -ledger (snapshots exist for recovery)")
	}
	// A kill beyond the restart budget means the run is expected to die.
	// That is a configuration mistake — unless a ledger makes the death
	// resumable, which is exactly how the resume path is self-tested.
	if o.ChaosKills > 0 && o.MaxRestarts < o.ChaosKills && o.Ledger == "" {
		return fmt.Errorf("-chaos-kills %d needs -max-restarts >= %d to survive (or -ledger to resume from)", o.ChaosKills, o.ChaosKills)
	}
	if o.Fsync.Mode != ledger.SyncNone && o.Ledger == "" {
		return fmt.Errorf("-fsync %s needs -ledger (there is no record log to sync without one)", o.Fsync)
	}
	if (o.ChaosFlaps > 0 || o.ChaosPart > 0) && o.RetryBudget <= 0 {
		return fmt.Errorf("-chaos-flaps/-chaos-partition need -retry-budget > 0 (transient faults are absorbed by reconnecting links)")
	}
	if o.ChaosPart > 0 && o.RetryBudget <= o.ChaosPart {
		return fmt.Errorf("-chaos-partition %v needs -retry-budget > %v, or the partition cannot heal inside the reconnect budget", o.ChaosPart, o.ChaosPart)
	}
	return nil
}

// resumeOptions configures pipebd -resume: everything that defines the
// run lives in the ledger manifest, so only operational overrides remain.
type resumeOptions struct {
	Dir         string   // ledger directory (required)
	Workers     []string // override manifest worker addresses; nil reuses them
	MaxRestarts int      // 0 reuses the manifest's budget
	Heartbeat   time.Duration
	Verify      bool
	Fsync       ledger.SyncPolicy
	Repartition bool
	// Expect pins explicitly-requested run properties (plan name,
	// topology, steps) against the manifest; nil checks nothing.
	Expect *cluster.ResumeExpectation
}

func (o resumeOptions) validate() error {
	if o.Dir == "" {
		return fmt.Errorf("-resume needs a ledger directory")
	}
	return nil
}

// clusterWorkload resolves the -cluster-model name into everything the
// cluster run needs: the wire model spec workers rebuild the workbench
// from, the deterministic data recipe first-group workers regenerate
// batches from, the local workbench constructor, and the cost-model
// workload the trace report's modeled comparison uses. Both workbenches
// have four blocks, so every named cluster plan applies to either model.
func clusterWorkload(name string, steps, batch int) (wire.ModelSpec, wire.DataSpec, func() *distill.Workbench, model.Workload, error) {
	switch name {
	case "", "tiny":
		tiny := distill.DefaultTinyConfig()
		ds := wire.DataSpec{Seed: 7, N: steps * batch, C: 3,
			H: tiny.Height, W: tiny.Width, Classes: 4, Batch: batch}
		build := func() *distill.Workbench { return distill.NewTinyWorkbench(tiny) }
		return cluster.TinySpec(tiny), ds, build, tinyWorkload(tiny, steps, batch), nil
	case "transformer":
		tc := distill.DefaultTransformerConfig()
		ds := wire.DataSpec{Seed: 7, N: steps * batch, Classes: tc.Classes,
			Batch: batch, Kind: "tokens", L: tc.SeqLen, Vocab: tc.Vocab}
		build := func() *distill.Workbench { return distill.NewTransformerWorkbench(tc) }
		return cluster.TransformerSpec(tc), ds, build, transformerWorkload(tc, steps, batch), nil
	default:
		return wire.ModelSpec{}, wire.DataSpec{}, nil, model.Workload{},
			fmt.Errorf("unknown cluster model %q (want tiny or transformer)", name)
	}
}

// clusterPlan maps the named schedule onto the workbench's 4 blocks.
func clusterPlan(name string) (sched.Plan, error) {
	g := func(devs, blocks []int) sched.Group { return sched.Group{Devices: devs, Blocks: blocks} }
	switch name {
	case "tr":
		return sched.Plan{Name: "tr", Groups: []sched.Group{
			g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})}}, nil
	case "tr3":
		// Three devices, one per group, front-loaded: a shape -repartition
		// can rebalance when a device measures slow.
		return sched.Plan{Name: "tr3", Groups: []sched.Group{
			g([]int{0}, []int{0, 1}), g([]int{1}, []int{2}), g([]int{2}, []int{3})}}, nil
	case "hybrid":
		return sched.Plan{Name: "hybrid", Groups: []sched.Group{
			g([]int{0, 1}, []int{0, 1}), g([]int{2}, []int{2, 3})}}, nil
	case "ir":
		return sched.InternalRelaying(2, 4), nil
	case "dp3":
		// 3-way split front group: the smallest plan whose ring topology
		// runs a true reduce-scatter + all-gather ring (k >= 3) instead of
		// the two-member full exchange. Batch must divide by 3.
		return sched.Plan{Name: "dp3", Groups: []sched.Group{
			g([]int{0, 1, 2}, []int{0, 1}), g([]int{3}, []int{2, 3})}}, nil
	default:
		return sched.Plan{}, fmt.Errorf("unknown cluster plan %q (want tr, tr3, hybrid, ir, or dp3)", name)
	}
}

// runCluster trains the selected workbench (tiny compression by default,
// transformer with -cluster-model transformer) across the given workers
// and, with opts.Verify, proves the run bit-identical to the in-process
// pipeline.
func runCluster(stdout io.Writer, opts clusterOptions) error {
	if err := opts.validate(); err != nil {
		return err
	}
	plan, err := clusterPlan(opts.PlanName)
	if err != nil {
		return err
	}
	nDev := plan.NumDevices()

	spec, recipe, buildBench, costWL, err := clusterWorkload(opts.Model, opts.Steps, opts.Batch)
	if err != nil {
		return err
	}
	// The run's batches are exactly the recipe's evaluation, so the
	// workers hosting the first group load their training data locally
	// instead of receiving it from the coordinator.
	batches, err := recipe.Batches()
	if err != nil {
		return err
	}

	cfg := cluster.Config{
		Plan: plan, DPU: true, LR: 0.05, Momentum: 0.9,
		Backend: opts.Backend, Topology: opts.Topology, Spec: spec,
		Data:              recipe,
		MaxRestarts:       opts.MaxRestarts,
		Snapshot:          cluster.SnapshotPolicy{Interval: opts.SnapInterval},
		LedgerDir:         opts.Ledger,
		Fsync:             opts.Fsync,
		Repartition:       opts.Repartition,
		RetryBudget:       opts.RetryBudget,
		HeartbeatInterval: opts.Heartbeat,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, "pipebd: "+format+"\n", args...)
		},
	}
	counters := obs.NewMetrics()
	cfg.Metrics = counters
	var collect *obs.Collector
	if opts.TraceOut != "" {
		collect = obs.NewCollector()
		cfg.Trace = true
		cfg.TraceSink = collect.Add
	}
	var net transport.Network = transport.TCP{}
	var chaos *transport.Chaos
	var schedule []transport.Fault
	if opts.ChaosKills > 0 {
		schedule = append(schedule, transport.RandomKills(opts.ChaosSeed, len(opts.Workers), opts.Steps, opts.ChaosKills)...)
	}
	if opts.ChaosFlaps > 0 {
		schedule = append(schedule, transport.RandomFlaps(opts.ChaosSeed, len(opts.Workers), opts.Steps, opts.ChaosFlaps)...)
	}
	if opts.ChaosPart > 0 {
		// One healing partition on the first dialed link, mid-run: the
		// break itself looks like a flap, but redials keep failing until
		// the blackhole lifts, so the reconnect loop must outlast it.
		schedule = append(schedule, transport.Fault{
			Trigger: transport.Trigger{Conn: 0, Op: transport.OpRecv,
				Kind: wire.KindLosses, Step: int32(opts.Steps / 2), Count: 1},
			Action: transport.ActPartition,
			Delay:  opts.ChaosPart,
		})
	}
	if len(schedule) > 0 {
		for _, f := range schedule {
			fmt.Fprintf(stdout, "pipebd: chaos schedule: %v\n", f)
		}
		chaos = transport.NewChaos(net, schedule...)
		chaos.Logf = cfg.Logf
		net = chaos
	}
	// The meter wraps outermost so it sees exactly what crosses the
	// coordinator's sockets — the control plane's share of the traffic
	// (ring runs move tensors worker-to-worker; those bytes show up on
	// the workers' own -net-stats meters, not here).
	var meter *transport.Meter
	if opts.NetStats || opts.DebugAddr != "" {
		meter = transport.NewMeter(net)
		net = meter
	}
	if opts.DebugAddr != "" {
		srv, err := obs.StartDebugServer(opts.DebugAddr, func(w io.Writer) {
			counters.Render(w)
			writeMeterTotals(w, "coordinator control plane", meter.Totals())
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "pipebd: debug server on http://%s (/metrics, /debug/pprof/)\n", srv.Addr())
	}
	w := buildBench()
	topo := opts.Topology
	if topo == "" {
		topo = "hub"
	}
	fmt.Fprintf(stdout, "pipebd: cluster run: plan %s (%s), model %s, %d device(s) on %d worker(s), %d steps, batch %d, dpu=%v, topology=%s, max-restarts=%d\n",
		plan.Name, plan.Describe(), spec.Name, nDev, len(opts.Workers), opts.Steps, opts.Batch, cfg.DPU, topo, opts.MaxRestarts)
	if opts.Ledger != "" {
		fmt.Fprintf(stdout, "pipebd: durable run: ledger at %s (restart a killed coordinator with: pipebd -resume %s)\n",
			opts.Ledger, opts.Ledger)
	}
	start := time.Now()
	res, err := cluster.Run(net, opts.Workers, w, batches, cfg)
	if opts.NetStats && meter != nil {
		// Byte totals print even when the run failed — partial traffic is
		// often exactly what a failure post-mortem needs.
		writeMeterTotals(stdout, "pipebd: net: coordinator control plane", meter.Totals())
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pipebd: cluster run finished in %v\n", time.Since(start).Round(time.Millisecond))
	if opts.Repartition {
		fmt.Fprintf(stdout, "pipebd: repartitions executed: %d\n", counters.Counter("repartitions").Load())
	}
	if cfg.RetryBudget > 0 {
		fmt.Fprintf(stdout, "pipebd: link faults absorbed: %d (%d frame(s) replayed), links degraded to hub relay: %d, restarts consumed: %d of %d\n",
			counters.Counter("link_faults_absorbed").Load(),
			counters.Counter("link_frames_replayed").Load(),
			counters.Counter("degrades").Load(),
			counters.Counter("recoveries").Load(), opts.MaxRestarts)
	}
	if chaos != nil {
		if unfired := chaos.Unfired(); len(unfired) > 0 {
			// A kill that never fired (e.g. aimed at a worker the plan never
			// dialed) would make this self-test vacuous: the run "survived"
			// nothing. Fail loudly instead.
			return fmt.Errorf("chaos self-test invalid: %d scheduled fault(s) never fired (%v); pick a different -chaos-seed or fewer workers", len(unfired), unfired)
		}
	}
	final := res.FinalLoss()
	parts := make([]string, len(final))
	for b, l := range final {
		parts[b] = fmt.Sprintf("B%d=%.6g", b, l)
	}
	fmt.Fprintf(stdout, "pipebd: final per-block losses: %s\n", strings.Join(parts, " "))

	if collect != nil {
		// Worker-side drops are counted on the workers (their metrics and
		// trace dumps); the coordinator's own track reports here.
		collect.AddDropped(counters.Counter("spans_dropped").Load())
		if err := writeTraceReport(stdout, opts.TraceOut, collect,
			plan, cfg.DPU, nDev, opts.Steps, opts.Batch, costWL); err != nil {
			return err
		}
	}

	if !opts.Verify {
		return nil
	}
	ref := buildBench()
	refRes := engine.RunPipelined(ref, batches, engine.Config{
		Plan: plan, DPU: cfg.DPU, LR: cfg.LR, Momentum: cfg.Momentum})
	return verifyBitIdentical(stdout, res, w, refRes, ref)
}

// verifyBitIdentical requires a run's loss trajectory and trained student
// weights to match an in-process reference bit-for-bit — the CLI face of
// the cluster's equivalence guarantee, shared by -cluster -verify and
// -resume -verify.
func verifyBitIdentical(stdout io.Writer, res engine.Result, w *distill.Workbench, refRes engine.Result, ref *distill.Workbench) error {
	for b := range refRes.Loss {
		for s := range refRes.Loss[b] {
			if refRes.Loss[b][s] != res.Loss[b][s] {
				return fmt.Errorf("verify failed: loss diverged at block %d step %d: cluster %v vs in-process %v",
					b, s, res.Loss[b][s], refRes.Loss[b][s])
			}
		}
	}
	for b := 0; b < ref.NumBlocks(); b++ {
		pw, pr := w.StudentParams(b), ref.StudentParams(b)
		for i := range pw {
			if !pw[i].Value.Equal(pr[i].Value) {
				return fmt.Errorf("verify failed: trained weights diverged at block %d param %d (%s)",
					b, i, pw[i].Name)
			}
		}
	}
	fmt.Fprintln(stdout, "pipebd: verify OK: cluster trajectory and trained weights are bit-identical to the in-process pipeline")
	return nil
}

// runResume restarts a killed coordinator from its ledger directory: the
// manifest supplies the plan, model, hyperparameters, data recipe, and
// worker addresses; the record log supplies the crash-time cut. With
// opts.Verify the finished run is additionally checked bit-identical
// against a fresh in-process pipeline built from the same manifest.
func runResume(stdout io.Writer, opts resumeOptions) error {
	if err := opts.validate(); err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stdout, "pipebd: "+format+"\n", args...)
	}
	fmt.Fprintf(stdout, "pipebd: resuming coordinator from ledger %s\n", opts.Dir)
	start := time.Now()
	res, w, err := cluster.ResumeRun(transport.TCP{}, opts.Dir, cluster.ResumeConfig{
		Addrs:             opts.Workers,
		MaxRestarts:       opts.MaxRestarts,
		HeartbeatInterval: opts.Heartbeat,
		Logf:              logf,
		Fsync:             opts.Fsync,
		Repartition:       opts.Repartition,
		Expect:            opts.Expect,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pipebd: resumed run finished in %v\n", time.Since(start).Round(time.Millisecond))
	final := res.FinalLoss()
	parts := make([]string, len(final))
	for b, l := range final {
		parts[b] = fmt.Sprintf("B%d=%.6g", b, l)
	}
	fmt.Fprintf(stdout, "pipebd: final per-block losses: %s\n", strings.Join(parts, " "))
	if !opts.Verify {
		return nil
	}
	// The manifest pins everything the reference needs; re-read it so the
	// comparison cannot drift from what was actually resumed.
	led, man, _, err := ledger.Open(opts.Dir)
	if err != nil {
		return err
	}
	led.Close()
	ref, err := cluster.BuildWorkbench(man.Assign.Spec)
	if err != nil {
		return err
	}
	if err := cluster.InstallSnapshot(ref, man.Assign.Snapshot); err != nil {
		return err
	}
	batches, err := man.Assign.Run.Data.Batches()
	if err != nil {
		return err
	}
	refRes := engine.RunPipelined(ref, batches[:man.Assign.Run.Steps], engine.Config{
		Plan: man.Assign.Plan, DPU: man.Assign.Run.DPU,
		LR: man.Assign.Run.LR, Momentum: man.Assign.Run.Momentum})
	return verifyBitIdentical(stdout, res, w, refRes, ref)
}
