package main

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/model"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
)

// runOptions are the flags a fresh cluster run and a resumed one both
// read.
type runOptions struct {
	// MaxRestarts enables fault tolerance: up to this many worker losses
	// restart the run from its global cut instead of failing it. A resume
	// reuses the manifest's budget at 0 and disables recovery below it.
	MaxRestarts int
	// Heartbeat asks workers for liveness beacons on this interval (the
	// coordinator declares one dead after 4 silent intervals); 0 disables.
	Heartbeat time.Duration
	Verify    bool              // re-run in-process and require bit-identical results
	Fsync     ledger.SyncPolicy // the ledger record-log durability tier
	// Repartition arms the measurement-driven runtime repartitioner.
	Repartition bool
}

func (o *runOptions) flags(fs *flag.FlagSet) {
	fs.IntVar(&o.MaxRestarts, "max-restarts", 0, "survive up to N lost workers by restarting every device from the newest commonly snapshotted step (0: a lost worker fails the run); on resume, 0 reuses the manifest's budget and a negative value disables worker recovery")
	fs.DurationVar(&o.Heartbeat, "cluster-heartbeat", 0, "worker heartbeat interval; a worker silent for 4 intervals is declared dead (0: disable silence detection)")
	fs.BoolVar(&o.Verify, "verify", false, "require bit-identical match with the in-process pipeline")
	fs.Func("fsync", "ledger record-log durability tier: none (page cache only — survives process death; the default), interval[:N] (fsync every N records, default 64), or always (fsync every record)", func(s string) (err error) {
		o.Fsync, err = ledger.ParseSyncPolicy(s)
		return err
	})
	fs.BoolVar(&o.Repartition, "repartition", false, "rebalance the pipeline placement mid-run from measured span timings — when observed per-block step times predict a better split, cut at a step boundary and re-place (weights stay bit-identical; only the boundaries between runs of unsplit groups move, so e.g. tr3 can shed a slow device and ir never repartitions)")
}

// clusterOptions configures the cluster mode: a fresh multi-process run.
type clusterOptions struct {
	runOptions
	Workers  []string // worker addresses, in device-placement order
	PlanName string   // tr | tr3 | hybrid | ir | dp3
	Model    string   // tiny | transformer
	Steps    int
	Batch    int
	Backend  string
	// Topology selects how peer edges are carried: "ring" (the CLI
	// default) dials them worker-to-worker, "hub" (or empty) relays every
	// edge through the coordinator.
	Topology string
	// Ledger makes the run durable: the coordinator persists its state
	// under this directory so a killed coordinator can be resumed.
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
	TraceOut  string
	NetStats  bool   // print the coordinator's transport totals at run end
	DebugAddr string // serve pprof and /metrics here for the run
}

func (o *clusterOptions) flags(fs *flag.FlagSet) {
	o.runOptions.flags(fs)
	fs.StringVar(&o.PlanName, "cluster-plan", "hybrid", "cluster schedule: tr|tr3|hybrid|ir|dp3")
	fs.StringVar(&o.Model, "cluster-model", "tiny", "cluster workload: tiny (conv compression workbench) or transformer (encoder blocks with KL logit distillation)")
	fs.IntVar(&o.Steps, "cluster-steps", 6, "cluster training steps")
	fs.IntVar(&o.Batch, "cluster-batch", 8, "cluster global batch size")
	fs.StringVar(&o.Topology, "topology", "ring", "how the cluster's peer edges are carried: ring (activations and all-reduce travel worker-to-worker; coordinator is control plane only) or hub (the coordinator relays every edge)")
	backendFlag(fs, &o.Backend)
	fs.DurationVar(&o.RetryBudget, "retry-budget", 0, "transient-fault absorption — a broken worker or peer link reconnects with exponential backoff (from 10 ms) and replays its missed frames for up to this long before the failure escalates (0: links fail on first break)")
	fs.StringVar(&o.Ledger, "ledger", "", "persist the coordinator's run state under this directory so a killed coordinator can restart with pipebd resume")
	fs.IntVar(&o.SnapInterval, "snapshot-interval", 0, "snapshot interval k — each group's rank-0 device snapshots every k-th step (0: every step when fault tolerance is on)")
	fs.IntVar(&o.ChaosKills, "chaos-kills", 0, "inject N seeded worker-connection kills mid-run (self-test for -max-restarts; combine with -verify)")
	fs.Int64Var(&o.ChaosSeed, "chaos-seed", 1, "seed for the -chaos-kills and -chaos-flaps schedules")
	fs.IntVar(&o.ChaosFlaps, "chaos-flaps", 0, "inject N seeded transient link flaps mid-run (self-test for -retry-budget; combine with -verify)")
	fs.DurationVar(&o.ChaosPart, "chaos-partition", 0, "inject one healing partition — a link breaks and its address stays unreachable for this duration, so the reconnect loop must back off until it heals (needs -retry-budget > the partition)")
	fs.StringVar(&o.TraceOut, "trace-out", "", "trace every device's per-step spans, write a Chrome trace-event JSON file here (open in chrome://tracing or Perfetto), and print the measured-vs-modeled utilization report")
	fs.BoolVar(&o.NetStats, "net-stats", false, "print the coordinator's transport byte/frame totals at run end")
	fs.StringVar(&o.DebugAddr, "debug-addr", "", "serve net/http/pprof and a plain-text /metrics page on this address for the duration of the run")
}

// validate rejects option combinations before any socket is touched.
// What the library checks itself (the snapshot policy, for one) it
// checks before it dials, so it is not repeated here.
func (o clusterOptions) validate() error {
	if len(o.Workers) == 0 {
		return fmt.Errorf("cluster mode needs at least one worker address")
	}
	if o.Steps <= 0 || o.Batch <= 0 {
		return fmt.Errorf("cluster steps and batch must be positive (got %d, %d)", o.Steps, o.Batch)
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

// resumeOptions configures the resume mode: everything that defines the
// run lives in the ledger manifest, so only operational overrides remain.
type resumeOptions struct {
	runOptions
	// expect pins run properties given on the command line against the
	// manifest; zero fields are not checked.
	expect cluster.ResumeExpectation
}

func (o *resumeOptions) flags(fs *flag.FlagSet) {
	o.runOptions.flags(fs)
	const check = " the ledger's manifest must hold; resume fails on a mismatch"
	fs.StringVar(&o.expect.PlanName, "cluster-plan", "", "the plan name"+check)
	fs.StringVar(&o.expect.Model, "cluster-model", "", "the model"+check)
	fs.StringVar(&o.expect.Topology, "topology", "", "the topology"+check)
	fs.IntVar(&o.expect.Steps, "cluster-steps", 0, "the step count"+check)
}

// compactOptions is the compact mode, which has no flags.
type compactOptions struct{}

func (compactOptions) flags(*flag.FlagSet) {}

func (compactOptions) run(args []string, stdout io.Writer) error {
	if err := ledger.Compact(args[0]); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pipebd: compacted ledger %s (resume with: pipebd resume %s)\n", args[0], args[0])
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

// run trains the selected workbench (tiny compression by default,
// transformer with -cluster-model transformer) across the workers and,
// with -verify, proves the run bit-identical to the in-process pipeline.
func (o *clusterOptions) run(args []string, stdout io.Writer) error {
	o.Workers = strings.Split(args[0], ",")
	if err := o.validate(); err != nil {
		return err
	}
	if err := useBackend(o.Backend); err != nil {
		return err
	}
	plan, err := clusterPlan(o.PlanName)
	if err != nil {
		return err
	}
	nDev := plan.NumDevices()

	spec, recipe, buildBench, costWL, err := clusterWorkload(o.Model, o.Steps, o.Batch)
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
		Backend: o.Backend, Topology: o.Topology, Spec: spec,
		Data:              recipe,
		MaxRestarts:       o.MaxRestarts,
		Snapshot:          cluster.SnapshotPolicy{Interval: o.SnapInterval},
		LedgerDir:         o.Ledger,
		Fsync:             o.Fsync,
		Repartition:       o.Repartition,
		RetryBudget:       o.RetryBudget,
		HeartbeatInterval: o.Heartbeat,
	}
	decided := newDecisions(stdout)
	cfg.OnEvent = decided.record
	counters := obs.NewMetrics()
	cfg.Metrics = counters
	var collect *obs.Collector
	if o.TraceOut != "" {
		collect = obs.NewCollector()
		cfg.Trace = true
		cfg.TraceSink = collect.Add
	}
	var net transport.Network = transport.TCP{}
	var chaos *transport.Chaos
	schedule := append(transport.RandomKills(o.ChaosSeed, len(o.Workers), o.Steps, o.ChaosKills),
		transport.RandomFlaps(o.ChaosSeed, len(o.Workers), o.Steps, o.ChaosFlaps)...)
	if o.ChaosPart > 0 {
		// One healing partition on the first dialed link, mid-run: the
		// break itself looks like a flap, but redials keep failing until
		// the blackhole lifts, so the reconnect loop must outlast it.
		schedule = append(schedule, transport.Fault{
			Trigger: transport.Trigger{Conn: 0, Op: transport.OpRecv,
				Kind: wire.KindLosses, Step: int32(o.Steps / 2), Count: 1},
			Action: transport.ActPartition,
			Delay:  o.ChaosPart,
		})
	}
	if len(schedule) > 0 {
		for _, f := range schedule {
			fmt.Fprintf(stdout, "pipebd: chaos schedule: %v\n", f)
		}
		chaos = transport.NewChaos(net, schedule...)
		chaos.Logf = decided.logf
		net = chaos
	}
	// The meter wraps outermost so it sees exactly what crosses the
	// coordinator's sockets — the control plane's share of the traffic
	// (ring runs move tensors worker-to-worker; those bytes show up on
	// the workers' own -net-stats meters, not here).
	net, closeMeter, err := observe(stdout, "pipebd: ", net, "coordinator control plane", o.NetStats, o.DebugAddr, counters)
	if err != nil {
		return err
	}
	w := buildBench()
	fmt.Fprintf(stdout, "pipebd: cluster run: plan %s (%s), model %s, %d device(s) on %d worker(s), %d steps, batch %d, dpu=%v, topology=%s, max-restarts=%d\n",
		plan.Name, plan.Describe(), spec.Name, nDev, len(o.Workers), o.Steps, o.Batch, cfg.DPU, o.Topology, o.MaxRestarts)
	if o.Ledger != "" {
		fmt.Fprintf(stdout, "pipebd: durable run: ledger at %s (restart a killed coordinator with: pipebd resume %s)\n",
			o.Ledger, o.Ledger)
	}
	start := time.Now()
	res, err := cluster.Run(net, o.Workers, w, batches, cfg)
	// Byte totals print even when the run failed — partial traffic is
	// often exactly what a failure post-mortem needs.
	closeMeter()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pipebd: cluster run finished in %v\n", time.Since(start).Round(time.Millisecond))
	decided.summary(o.Repartition, cfg.RetryBudget > 0, o.MaxRestarts)
	if chaos != nil {
		if unfired := chaos.Unfired(); len(unfired) > 0 {
			// A kill that never fired (e.g. aimed at a worker the plan never
			// dialed) would make this self-test vacuous: the run "survived"
			// nothing. Fail loudly instead.
			return fmt.Errorf("chaos self-test invalid: %d scheduled fault(s) never fired (%v); pick a different -chaos-seed or fewer workers", len(unfired), unfired)
		}
	}
	if collect != nil {
		// Worker-side drops are counted on the workers (their metrics and
		// trace dumps); the coordinator's own track reports here.
		collect.AddDropped(counters.Counter("spans_dropped").Load())
		if err := writeTraceReport(stdout, o.TraceOut, collect,
			plan, cfg.DPU, nDev, o.Steps, o.Batch, costWL); err != nil {
			return err
		}
	}
	return finish(stdout, res, w, o.Verify, func() (*distill.Workbench, []dataset.Batch, engine.Config, error) {
		return buildBench(), batches, engine.Config{Plan: plan, DPU: cfg.DPU, LR: cfg.LR, Momentum: cfg.Momentum}, nil
	})
}

// finish prints a finished run's final per-block losses and, with
// verify, requires its loss trajectory and trained student weights to
// match bit for bit the in-process pipeline that reference builds — the
// CLI face of the cluster's equivalence guarantee, shared by cluster and
// resume.
func finish(stdout io.Writer, res engine.Result, w *distill.Workbench, verify bool,
	reference func() (*distill.Workbench, []dataset.Batch, engine.Config, error)) error {
	final := res.FinalLoss()
	parts := make([]string, len(final))
	for b, l := range final {
		parts[b] = fmt.Sprintf("B%d=%.6g", b, l)
	}
	fmt.Fprintf(stdout, "pipebd: final per-block losses: %s\n", strings.Join(parts, " "))
	if !verify {
		return nil
	}
	ref, batches, cfg, err := reference()
	if err != nil {
		return err
	}
	refRes := engine.RunPipelined(ref, batches, cfg)
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

// run restarts a killed coordinator from its ledger directory: the
// manifest supplies the plan, model, hyperparameters, data recipe, and
// worker addresses (unless args name others); the record log supplies
// the crash-time cut. With -verify the finished run is additionally
// checked bit-identical against a fresh in-process pipeline built from
// the same manifest.
func (o *resumeOptions) run(args []string, stdout io.Writer) error {
	dir := args[0]
	var workers []string
	if len(args) > 1 {
		workers = strings.Split(args[1], ",")
	}
	fmt.Fprintf(stdout, "pipebd: resuming coordinator from ledger %s\n", dir)
	start := time.Now()
	decided := newDecisions(stdout)
	res, w, err := cluster.ResumeRun(transport.TCP{}, dir, cluster.ResumeConfig{
		Addrs:             workers,
		MaxRestarts:       o.MaxRestarts,
		HeartbeatInterval: o.Heartbeat,
		OnEvent:           decided.record,
		Fsync:             o.Fsync,
		Repartition:       o.Repartition,
		Expect:            &o.expect,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pipebd: resumed run finished in %v\n", time.Since(start).Round(time.Millisecond))
	// The manifest pins the resumed run's retry and restart budgets and
	// everything the reference needs; re-read it so neither the summary
	// nor the comparison can drift from what was actually resumed.
	led, man, _, err := ledger.Open(dir)
	if err != nil {
		return err
	}
	led.Close()
	maxRestarts := o.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = man.MaxRestarts
	}
	decided.summary(o.Repartition, man.Assign.Run.RetryBudgetMillis > 0, max(maxRestarts, 0))
	return finish(stdout, res, w, o.Verify, func() (ref *distill.Workbench, batches []dataset.Batch, cfg engine.Config, err error) {
		if ref, err = cluster.BuildWorkbench(man.Assign.Spec); err != nil {
			return
		}
		if err = cluster.InstallSnapshot(ref, man.Assign.Snapshot); err != nil {
			return
		}
		if batches, err = man.Assign.Run.Data.Batches(); err != nil {
			return
		}
		run := man.Assign.Run
		return ref, batches[:run.Steps], engine.Config{Plan: man.Assign.Plan, DPU: run.DPU, LR: run.LR, Momentum: run.Momentum}, nil
	})
}

// decisions prints a coordinator's decisions as they come, one
// "pipebd: " line each, and counts them by kind for the summary that
// closes a cluster or resume run. Its record is a Config.OnEvent, called
// from link goroutines too, so every line it prints goes out whole.
type decisions struct {
	out      io.Writer
	mu       sync.Mutex
	n        map[cluster.EventKind]int
	replayed int
}

func newDecisions(out io.Writer) *decisions {
	return &decisions{out: out, n: map[cluster.EventKind]int{}}
}

func (d *decisions) record(ev cluster.Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.n[ev.Kind]++
	d.replayed += ev.Replayed
	fmt.Fprintf(d.out, "pipebd: %v\n", ev)
}

// logf prints one line among the decisions.
func (d *decisions) logf(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fmt.Fprintf(d.out, "pipebd: "+format+"\n", args...)
}

// summary prints what a finished run decided: with the repartitioner
// armed (or once it cut), the repartitions executed; with a retry
// budget, the control-link faults absorbed, the links degraded and the
// restarts consumed of maxRestarts.
func (d *decisions) summary(repartition, retry bool, maxRestarts int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if repartition || d.n[cluster.EventRepartition] > 0 {
		fmt.Fprintf(d.out, "pipebd: repartitions executed: %d\n", d.n[cluster.EventRepartition])
	}
	if retry {
		fmt.Fprintf(d.out, "pipebd: link faults absorbed: %d (%d frame(s) replayed), links degraded to hub relay: %d, restarts consumed: %d of %d\n",
			d.n[cluster.EventAbsorbed], d.replayed, d.n[cluster.EventDegrade], d.n[cluster.EventRestart], maxRestarts)
	}
}
