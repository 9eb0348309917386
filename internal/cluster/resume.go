package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
)

// ResumeConfig holds the operational knobs of a resumed run — everything
// else (plan, model spec, hyperparameters, snapshot policy, data recipe,
// seed weights) comes from the ledger manifest, so the resumed trajectory
// cannot drift from the original by a flag mismatch.
type ResumeConfig struct {
	// Addrs overrides the manifest's worker addresses; nil reuses them.
	Addrs []string
	// JoinTimeout bounds each placement slot's search for a live worker;
	// <= 0 means 10s.
	JoinTimeout time.Duration
	// MaxRestarts is the worker-loss budget of the resumed run; 0 reuses
	// the manifest's budget, negative disables worker-loss recovery (the
	// run stays durable either way — its ledger keeps growing, so a
	// failed resume can itself be resumed).
	MaxRestarts int
	// HeartbeatInterval configures silence detection (see
	// Config.HeartbeatInterval); zero reuses the manifest's interval.
	HeartbeatInterval time.Duration
	// OnEvent receives the resumed run's decisions, EventResumed first
	// (see Config.OnEvent).
	OnEvent func(Event)
	// Fsync is the resumed run's record-log durability tier (the ledger is
	// re-opened with it); the zero policy is SyncNone, matching Config.
	Fsync ledger.SyncPolicy
	// Repartition re-arms the runtime repartitioner for the resumed run.
	// A ledger that already holds repartition records enables it
	// implicitly regardless (the original run opted in).
	Repartition bool
	// Expect, when non-nil, pins what the caller believes the ledger
	// holds; any mismatch fails with a diagnostic before a single worker
	// is dialed, instead of silently resuming a different run.
	Expect *ResumeExpectation
}

// ResumeExpectation states the run a caller intends to resume. Zero
// fields are not checked. It guards the operational gap the manifest
// cannot close by itself: the manifest always wins on *what* runs (plan,
// spec, topology), so a caller pointing pipebd resume at the wrong ledger
// directory would otherwise quietly train a different model.
type ResumeExpectation struct {
	// PlanName must match the manifest plan's name, e.g. "tr".
	PlanName string
	// Topology must match the manifest's data plane; "hub" matches a
	// manifest that spelled it "" (the hub default).
	Topology string
	// Steps must match the manifest's step count.
	Steps int
	// Model must match the manifest spec's registry name, e.g. "tiny" or
	// "transformer".
	Model string
}

// validateManifest rejects a self-inconsistent manifest (a plan that
// cannot drive the persisted snapshot, a data recipe that cannot feed the
// run's steps) and any expectation mismatch.
func validateManifest(dir string, man *ledger.Manifest, exp *ResumeExpectation) error {
	if err := man.Assign.Plan.Validate(man.Assign.Plan.NumDevices(), len(man.Assign.Snapshot.Student)); err != nil {
		return fmt.Errorf("ledger %s: manifest plan does not fit its own seed snapshot: %w", dir, err)
	}
	ds := man.Assign.Run.Data
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("ledger %s: manifest data recipe: %w", dir, err)
	}
	if n := ds.N / ds.Batch; n < man.Assign.Run.Steps {
		return fmt.Errorf("ledger %s: manifest data recipe yields %d batches for %d steps", dir, n, man.Assign.Run.Steps)
	}
	if exp == nil {
		return nil
	}
	topo := man.Assign.Run.Topology
	if topo == "" {
		topo = "hub"
	}
	if exp.Topology != "" && exp.Topology != topo {
		return fmt.Errorf("ledger %s holds a %s-topology run, not %s — resume inherits the topology from the manifest; drop the override or point at the right ledger", dir, topo, exp.Topology)
	}
	if exp.PlanName != "" && exp.PlanName != man.Assign.Plan.Name {
		return fmt.Errorf("ledger %s holds plan %q (%s), not %q — resume inherits the plan from the manifest; drop the override or point at the right ledger",
			dir, man.Assign.Plan.Name, man.Assign.Plan.Describe(), exp.PlanName)
	}
	if exp.Steps > 0 && exp.Steps != man.Assign.Run.Steps {
		return fmt.Errorf("ledger %s holds a %d-step run, not %d — resume inherits the step count from the manifest; drop the override or point at the right ledger",
			dir, man.Assign.Run.Steps, exp.Steps)
	}
	if exp.Model != "" && exp.Model != man.Assign.Spec.Name {
		return fmt.Errorf("ledger %s holds model %q, not %q — resume inherits the model from the manifest; drop the override or point at the right ledger",
			dir, man.Assign.Spec.Name, exp.Model)
	}
	return nil
}

// ResumeRun restarts a killed coordinator from its on-disk ledger: it
// reloads the manifest, rebuilds the coordinator's workbench from the
// model spec and seed snapshot, and replays the whole record log in one
// pass through the run's account — the same applier the live coordinator
// commits through, repartition records included — to recover the global
// cut the crashed coordinator had reached: the newest step every group
// snapshotted and every device accounted for. The account then drives
// the same attempt driver a live restart uses: every device is re-placed
// on the still-running workers under the log's last plan, its state at
// the cut riding in the Assign, and the run is driven to completion. A
// record the account refuses fails the resume, naming the record, before
// a worker is dialed. The returned losses and the returned workbench's
// trained student weights are bit-identical to what the uninterrupted
// run — and therefore the fault-free engine.RunPipelined — would have
// produced, for either topology and any snapshot interval.
//
// The resumed run keeps appending to the same ledger, so a resume that is
// itself killed can be resumed again.
func ResumeRun(net transport.Network, dir string, rc ResumeConfig) (engine.Result, *distill.Workbench, error) {
	led, man, rep, err := ledger.Open(dir)
	if err != nil {
		return engine.Result{}, nil, err
	}
	d, err := resumeSetup(net, dir, led, man, rep, rc)
	if err != nil {
		led.Close()
		return engine.Result{}, nil, err
	}
	gens := 1
	for i, rec := range rep.Records {
		if rec.Type == ledger.TypeRepartition {
			gens++
		}
		if err := d.acct.Apply(rec); err != nil {
			led.Close()
			return engine.Result{}, nil, fmt.Errorf("ledger %s: record %d (%v): %w", dir, i, rec.Type, err)
		}
	}
	d.led, d.superseded = led, true
	d.c.emit(Event{Kind: EventResumed, Ledger: dir, Records: len(rep.Records), TornBytes: rep.TornBytes,
		Generations: gens, Topology: cmp.Or(d.c.cfg.Topology, "hub"), Plan: d.acct.Plan(), Step: d.acct.Cut() + 1})
	res, err := d.drive()
	if err != nil {
		return engine.Result{}, nil, err
	}
	return res, d.w, nil
}

// resumeSetup validates the manifest against the caller's expectation and
// rebuilds what ResumeRun drives with: the coordinator (configured from
// the manifest plus the resume's operational knobs) and its driver, with
// the seed workbench and a fresh account.
func resumeSetup(net transport.Network, dir string, led *ledger.Ledger, man *ledger.Manifest, rep *ledger.Replay, rc ResumeConfig) (*driver, error) {
	if err := validateManifest(dir, man, rc.Expect); err != nil {
		return nil, err
	}
	if err := led.SetSync(rc.Fsync); err != nil {
		return nil, err
	}
	w, err := BuildWorkbench(man.Assign.Spec)
	if err != nil {
		return nil, err
	}
	if err := InstallSnapshot(w, man.Assign.Snapshot); err != nil {
		return nil, err
	}
	addrs := rc.Addrs
	if len(addrs) == 0 {
		addrs = man.Addrs
	}
	maxRestarts := rc.MaxRestarts
	switch {
	case maxRestarts == 0:
		maxRestarts = man.MaxRestarts
	case maxRestarts < 0:
		maxRestarts = 0
	}
	cfg := Config{
		Plan:     man.Assign.Plan,
		DPU:      man.Assign.Run.DPU,
		LR:       man.Assign.Run.LR,
		Momentum: man.Assign.Run.Momentum,
		Backend:  man.Assign.Run.Backend,
		Topology: man.Assign.Run.Topology,
		Spec:     man.Assign.Spec,
		Data:     man.Assign.Run.Data,
		Snapshot: man.Assign.Run.Snap,
		// LedgerDir marks the run durable for the fault-tolerance switch;
		// the driver reuses the already-open ledger rather than creating one.
		LedgerDir:         dir,
		JoinTimeout:       rc.JoinTimeout,
		MaxRestarts:       maxRestarts,
		HeartbeatInterval: rc.HeartbeatInterval,
		RetryBudget:       time.Duration(man.Assign.Run.RetryBudgetMillis) * time.Millisecond,
		OnEvent:           rc.OnEvent,
		Fsync:             rc.Fsync,
		// A run that repartitioned keeps the controller armed whether or
		// not the caller re-asked for it.
		Repartition: rc.Repartition || slices.ContainsFunc(rep.Records, func(rec *ledger.Record) bool {
			return rec.Type == ledger.TypeRepartition
		}),
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Duration(man.Assign.Run.HeartbeatMillis) * time.Millisecond
	}
	return NewCoordinator(net, cfg).newDriver(w, man.Assign.Snapshot, man.Assign.Run.Steps, addrs)
}
