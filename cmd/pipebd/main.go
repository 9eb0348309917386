// Command pipebd regenerates the tables and figures of "Pipe-BD:
// Pipelined Parallel Blockwise Distillation" (DATE 2023) on the analytic
// multi-GPU simulator.
//
// Usage:
//
//	pipebd -exp fig4                 # one experiment
//	pipebd -exp all                  # everything
//	pipebd -exp fig4 -system 2080ti  # alternative hardware
//	pipebd -exp table2 -quick        # truncated epochs, skip accuracy proxy
//	pipebd -exp table2 -backend parallel # multi-core numeric engine
//
// Cluster mode trains the numeric workbench across pipebd-worker
// processes instead of running experiments:
//
//	pipebd -cluster 127.0.0.1:7710,127.0.0.1:7711 -cluster-plan hybrid
//	pipebd -cluster 127.0.0.1:7710 -cluster-plan tr -verify
//	pipebd -cluster 127.0.0.1:7710,127.0.0.1:7711 \
//	    -max-restarts 2 -chaos-kills 1 -chaos-seed 7 -verify
//
// -verify re-runs the same schedule in-process and requires the cluster's
// loss trajectory and trained weights to match bit-for-bit.
//
// -topology selects the cluster data plane. The default "ring" moves
// forwarded activations and gradient all-reduces directly between the
// workers over peer-to-peer connections, demoting the coordinator to a
// control plane (placement, loss collection, the step barrier,
// snapshots); "hub" routes every activation and gradient through the
// coordinator. Under both, the first pipeline stage regenerates its
// batches locally from the run's data recipe — no batch crosses a
// connection — and both are bit-identical to the in-process pipeline,
// and therefore to each other.
//
// -max-restarts N enables fault tolerance: when a worker connection dies
// (or goes silent past -cluster-heartbeat), the coordinator supersedes
// every session and restarts every device, on the re-joined or surviving
// workers, from the newest step all of them had snapshotted and
// accounted for — the result stays bit-identical, which the chaos flags
// prove by injecting seeded kills under -verify.
//
// -retry-budget D adds a cheaper tier below restarts: a broken worker or
// peer link first tries to reconnect (exponential backoff from 10 ms)
// and replay its missed frames, absorbing transient flaps without
// touching the restart budget; a peer link that stays down past the
// budget while its workers remain alive is degraded to hub relay through
// the coordinator instead of cutting the run. Self-test
// with -chaos-flaps N (seeded transient breaks) and -chaos-partition D
// (a healing blackhole the reconnect loop must outlast) under -verify.
//
// -ledger DIR makes the run durable: the coordinator persists a manifest
// and an append-only record of its recovery state, so the coordinator
// process itself can be killed and restarted:
//
//	pipebd -cluster 127.0.0.1:7710,127.0.0.1:7711 -ledger /tmp/run1
//	# ... pipebd dies mid-run (crash, OOM, kill -9) ...
//	pipebd -resume /tmp/run1 -verify
//
// The resumed run re-places every device on the workers (start them with
// -rejoin so a dropped session does not consume their budget) exactly as
// a fresh run or a live restart does — one handshake and one session-open
// frame per worker, carrying each device's state at the persisted cut —
// and finishes bit-identical to an uninterrupted run. -snapshot-interval k
// trades snapshot traffic for replay length (each group's rank-0 device
// snapshots every k-th step; the other members of a split group are
// bit-identical replicas and ship nothing).
//
// -compact-ledger DIR rewrites a ledger's append-only record log as one
// checkpoint record per plan generation holding only what a resume still
// needs, bounding the log's growth; a compacted ledger — including one a
// mid-run repartition split into generations — resumes bit-identically.
//
// Observability (cluster mode): -trace-out run.json makes every worker
// record per-step spans (teacher/student forward, backward, update,
// all-reduce phases, peer sends and ack waits, snapshot writes) and ship
// them to the coordinator at step boundaries; the collected timeline is
// written as Chrome trace-event JSON (load it in chrome://tracing or
// https://ui.perfetto.dev) and summarized as a measured utilization
// report printed side-by-side with the cost model's prediction of the
// same schedule. -net-stats prints the coordinator's transport byte
// totals even with tracing off; -debug-addr HOST:PORT serves
// net/http/pprof plus a plain-text /metrics page (steps completed,
// recoveries, snapshots, ledger records/bytes, transport totals) for the
// duration of the run. Tracing is off unless asked for and costs nothing
// when disabled.
//
// The -backend flag selects the tensor compute backend for every numeric
// (real float32 training) portion of the experiments: "serial" is the
// single-threaded reference, "parallel" row-partitions GEMMs across a
// bounded worker pool sized by GOMAXPROCS.
// Backends are bit-identical by contract, so results never depend on the
// choice — only wall-clock does.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/ledger"
	"pipebd/internal/experiments"
	"pipebd/internal/hw"
	"pipebd/internal/tensor"
)

// clusterModeFlags are the flags only a cluster run reads; the value says
// whether a -resume reads the flag too.
var clusterModeFlags = map[string]bool{
	"cluster-plan":      true,
	"cluster-model":     true,
	"cluster-steps":     true,
	"topology":          true,
	"cluster-timeout":   true,
	"max-restarts":      true,
	"cluster-heartbeat": true,
	"fsync":             true,
	"repartition":       true,
	"verify":            true,
	"cluster-batch":     false,
	"cluster-dpu":       false,
	"retry-budget":      false,
	"ledger":            false,
	"snapshot-interval": false,
	"chaos-kills":       false,
	"chaos-seed":        false,
	"chaos-flaps":       false,
	"chaos-partition":   false,
	"trace-out":         false,
	"net-stats":         false,
	"debug-addr":        false,
}

// checkModeFlags rejects explicitly set cluster-mode flags in a mode that
// would silently ignore them: experiment mode reads none of them, and a
// -resume without -cluster only those marked in clusterModeFlags. The
// error names every offending flag, in sorted order.
func checkModeFlags(explicit map[string]bool, cluster, resume bool) error {
	if cluster {
		return nil
	}
	var stray []string
	needs := "-cluster or -resume"
	for name, resumeReads := range clusterModeFlags {
		if !explicit[name] || resume && resumeReads {
			continue
		}
		stray = append(stray, "-"+name)
		if !resumeReads {
			needs = "-cluster"
		}
	}
	if len(stray) == 0 {
		return nil
	}
	sort.Strings(stray)
	return fmt.Errorf("%s: set without %s", strings.Join(stray, ", "), needs)
}

// experimentTable registers every -exp name, in the order "all" prints
// them: an experiment renders its text table and, where the figure has
// one, the ASCII chart -chart appends.
var experimentTable = []struct {
	name string
	run  func(sys hw.System, o experiments.Options, quick bool) (table, chart string)
}{
	{"table1", func(hw.System, experiments.Options, bool) (string, string) { return experiments.Table1(), "" }},
	{"fig2", func(sys hw.System, o experiments.Options, _ bool) (string, string) {
		rows := experiments.Fig2(sys, o)
		return experiments.FormatFig2(rows), experiments.ChartFig2(rows)
	}},
	{"fig4", func(sys hw.System, o experiments.Options, _ bool) (string, string) {
		rows := experiments.Fig4(sys, o)
		return experiments.FormatFig4(rows), experiments.ChartFig4(rows)
	}},
	{"fig5", func(_ hw.System, o experiments.Options, _ bool) (string, string) {
		return experiments.FormatFig5(experiments.Fig5(o)), ""
	}},
	{"fig6", func(sys hw.System, o experiments.Options, _ bool) (string, string) {
		rows := experiments.Fig6(sys, o)
		return experiments.FormatFig6(rows), experiments.ChartFig6(rows)
	}},
	{"fig7", func(sys hw.System, o experiments.Options, _ bool) (string, string) {
		rows := experiments.Fig7(sys, o)
		return experiments.FormatFig7(rows), experiments.ChartFig7(rows)
	}},
	{"table2", func(sys hw.System, o experiments.Options, quick bool) (string, string) {
		return experiments.FormatTable2(experiments.Table2(sys, o, quick)), ""
	}},
}

func main() {
	expNames := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		expNames[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(expNames, "|")+"|all")
	system := flag.String("system", "a6000", "system preset: a6000|2080ti")
	batch := flag.Int("batch", 256, "global batch size")
	quick := flag.Bool("quick", false, "truncate epochs to 40 steps and skip the accuracy proxy")
	chart := flag.Bool("chart", false, "append ASCII charts to figure output")
	backend := flag.String("backend", "serial", "tensor compute backend: "+strings.Join(tensor.Backends(), "|"))
	clusterAddrs := flag.String("cluster", "", "comma-separated pipebd-worker addresses; enables cluster training mode")
	clusterPlanName := flag.String("cluster-plan", "hybrid", "cluster schedule: tr|tr3|hybrid|ir|dp3")
	clusterModel := flag.String("cluster-model", "tiny", "cluster workload: tiny (conv compression workbench) or transformer (encoder blocks with KL logit distillation)")
	clusterSteps := flag.Int("cluster-steps", 6, "cluster training steps")
	clusterBatch := flag.Int("cluster-batch", 8, "cluster global batch size")
	clusterDPU := flag.Bool("cluster-dpu", true, "decoupled parameter update in cluster mode")
	clusterTopology := flag.String("topology", "ring", "cluster data plane: ring (activations and all-reduce travel worker-to-worker; coordinator is control plane only) or hub (all traffic through the coordinator)")
	clusterTimeout := flag.Duration("cluster-timeout", 10*time.Second, "per-worker join timeout in cluster mode")
	maxRestarts := flag.Int("max-restarts", 0, "cluster mode: survive up to N lost workers by restarting every device from the newest commonly snapshotted step (0: a lost worker fails the run); with -resume, 0 reuses the manifest's budget and a negative value disables worker recovery")
	clusterHeartbeat := flag.Duration("cluster-heartbeat", 0, "cluster mode: worker heartbeat interval; a worker silent for 4 intervals is declared dead (0: disable silence detection)")
	retryBudget := flag.Duration("retry-budget", 0, "cluster mode: transient-fault absorption — a broken worker or peer link reconnects with exponential backoff (from 10 ms) and replays its missed frames for up to this long before the failure escalates (0: links fail on first break, classic behavior)")
	ledgerDir := flag.String("ledger", "", "cluster mode: persist the coordinator's run state under this directory so a killed pipebd can restart with -resume")
	snapInterval := flag.Int("snapshot-interval", 0, "cluster mode: snapshot interval k — each group's rank-0 device snapshots every k-th step (0: every step when fault tolerance is on)")
	fsync := flag.String("fsync", "none", "ledger record-log durability tier: none (page cache only — survives process death), interval[:N] (fsync every N records, default 64), or always (fsync every record); needs -ledger or -resume")
	repartition := flag.Bool("repartition", false, "cluster mode: rebalance the pipeline placement mid-run from measured span timings — when observed per-block step times predict a better split, cut at a step boundary and re-place (weights stay bit-identical; any plan is accepted, but only the boundaries between runs of unsplit groups move, so e.g. tr3 can shed a slow device and ir never repartitions)")
	resumeDir := flag.String("resume", "", "restart a killed coordinator from this ledger directory (plan, model, batches, and workers come from the manifest; -cluster overrides the worker addresses; explicitly-set -cluster-plan/-topology/-cluster-steps become checked expectations against the manifest)")
	compactDir := flag.String("compact-ledger", "", "rewrite this ledger directory's record log as one checkpoint per plan generation holding only what a resume still needs, then exit")
	chaosKills := flag.Int("chaos-kills", 0, "cluster mode: inject N seeded worker-connection kills mid-run (self-test for -max-restarts; combine with -verify)")
	chaosSeed := flag.Int64("chaos-seed", 1, "cluster mode: seed for the -chaos-kills and -chaos-flaps schedules")
	chaosFlaps := flag.Int("chaos-flaps", 0, "cluster mode: inject N seeded transient link flaps mid-run (self-test for -retry-budget; combine with -verify)")
	chaosPartition := flag.Duration("chaos-partition", 0, "cluster mode: inject one healing partition — a link breaks and its address stays unreachable for this duration, so the reconnect loop must back off until it heals (needs -retry-budget > the partition)")
	verify := flag.Bool("verify", false, "cluster mode: require bit-identical match with the in-process pipeline")
	traceOut := flag.String("trace-out", "", "cluster mode: trace every device's per-step spans, write a Chrome trace-event JSON file here (open in chrome://tracing or Perfetto), and print the measured-vs-modeled utilization report")
	netStats := flag.Bool("net-stats", false, "cluster mode: print the coordinator's transport byte/frame totals at run end")
	debugAddr := flag.String("debug-addr", "", "cluster mode: serve net/http/pprof and a plain-text /metrics page on this address for the duration of the run")
	flag.Parse()

	if be, ok := tensor.Lookup(*backend); ok {
		tensor.SetDefault(be)
	} else {
		fmt.Fprintf(os.Stderr, "pipebd: unknown backend %q (want %s)\n", *backend, strings.Join(tensor.Backends(), " or "))
		os.Exit(2)
	}

	// Flags set explicitly on the command line, as opposed to resting at
	// their defaults: one the selected mode never reads is an error, and a
	// -resume alongside e.g. -cluster-plan tr means the user *expects* the
	// ledger to hold that plan — a silent mismatch would resume a different
	// run than intended.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := checkModeFlags(explicit, *clusterAddrs != "", *resumeDir != ""); err != nil {
		fmt.Fprintf(os.Stderr, "pipebd: %v\n", err)
		os.Exit(2)
	}
	fsyncPolicy, err := ledger.ParseSyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebd: %v\n", err)
		os.Exit(2)
	}

	if *compactDir != "" {
		if err := ledger.Compact(*compactDir); err != nil {
			fmt.Fprintf(os.Stderr, "pipebd: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pipebd: compacted ledger %s (resume with: pipebd -resume %s)\n", *compactDir, *compactDir)
		return
	}

	if *resumeDir != "" {
		opts := resumeOptions{
			Dir:         *resumeDir,
			Timeout:     *clusterTimeout,
			MaxRestarts: *maxRestarts,
			Heartbeat:   *clusterHeartbeat,
			Verify:      *verify,
			Fsync:       fsyncPolicy,
			Repartition: *repartition,
		}
		if *clusterAddrs != "" {
			opts.Workers = strings.Split(*clusterAddrs, ",")
		}
		if explicit["cluster-plan"] || explicit["topology"] || explicit["cluster-steps"] || explicit["cluster-model"] {
			opts.Expect = &cluster.ResumeExpectation{}
			if explicit["cluster-plan"] {
				opts.Expect.PlanName = *clusterPlanName
			}
			if explicit["topology"] {
				opts.Expect.Topology = *clusterTopology
			}
			if explicit["cluster-steps"] {
				opts.Expect.Steps = *clusterSteps
			}
			if explicit["cluster-model"] {
				opts.Expect.Model = *clusterModel
			}
		}
		if err := runResume(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "pipebd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *clusterAddrs != "" {
		opts := clusterOptions{
			Workers:      strings.Split(*clusterAddrs, ","),
			PlanName:     *clusterPlanName,
			Model:        *clusterModel,
			Steps:        *clusterSteps,
			Batch:        *clusterBatch,
			DPU:          *clusterDPU,
			Topology:     *clusterTopology,
			Timeout:      *clusterTimeout,
			Verify:       *verify,
			MaxRestarts:  *maxRestarts,
			Heartbeat:    *clusterHeartbeat,
			Ledger:       *ledgerDir,
			SnapInterval: *snapInterval,
			ChaosKills:   *chaosKills,
			ChaosSeed:    *chaosSeed,
			ChaosFlaps:   *chaosFlaps,
			ChaosPart:    *chaosPartition,
			RetryBudget:  *retryBudget,
			TraceOut:     *traceOut,
			NetStats:     *netStats,
			DebugAddr:    *debugAddr,
			Fsync:        fsyncPolicy,
			Repartition:  *repartition,
		}
		if *backend != "serial" {
			opts.Backend = *backend
		}
		if err := runCluster(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "pipebd: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sys, err := hw.Preset(*system)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebd: %v\n", err)
		os.Exit(2)
	}

	opts := experiments.Options{Batch: *batch}
	if *quick {
		opts.MaxSteps = 40
	}

	ran := false
	for _, e := range experimentTable {
		if *exp != e.name && *exp != "all" {
			continue
		}
		table, ascii := e.run(sys, opts, *quick)
		fmt.Println(table)
		if *chart && ascii != "" {
			fmt.Println(ascii)
		}
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "pipebd: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
