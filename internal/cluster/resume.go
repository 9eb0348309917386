package cluster

import (
	"fmt"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
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
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
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
	// Spec, when non-nil, must match the manifest's model spec exactly.
	Spec *wire.ModelSpec
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
	if exp.Spec != nil && *exp.Spec != man.Assign.Spec {
		return fmt.Errorf("ledger %s holds model %+v, not the expected %+v — resume inherits the model from the manifest; drop the override or point at the right ledger",
			dir, man.Assign.Spec, *exp.Spec)
	}
	return nil
}

// ResumeRun restarts a killed coordinator from its on-disk ledger: it
// reloads the manifest, rebuilds the coordinator's workbench from the
// model spec and seed snapshot, replays the record log to recover the
// global cut the crashed coordinator had reached — the newest step every
// group snapshotted and every device accounted for — and hands that cut
// to the same attempt driver a live restart uses: every device is
// re-placed on the still-running workers, its state at the cut riding in
// the Assign, and the run is driven to completion. The returned losses and
// the returned workbench's trained student weights are bit-identical to
// what the uninterrupted run — and therefore the fault-free
// engine.RunPipelined — would have produced, for either topology and any
// snapshot interval.
//
// A repartitioned log replays generation by generation: each superseded
// generation's records rebuild the snapshot history under *its* plan,
// the carry at the recorded cut is remapped onto the next recorded plan
// (block boundaries move between devices; no tensor is recombined), and
// the final generation is driven to completion under the log's last
// plan.
//
// The resumed run keeps appending to the same ledger, so a resume that is
// itself killed can be resumed again.
func ResumeRun(net transport.Network, dir string, rc ResumeConfig) (engine.Result, *distill.Workbench, error) {
	led, man, rep, err := ledger.Open(dir)
	if err != nil {
		return engine.Result{}, nil, err
	}
	c, w, addrs, err := resumeSetup(net, dir, led, man, rc)
	var restart *runCarry
	var gens int
	if err == nil {
		restart, gens, err = c.replayLog(w, man, rep, addrs)
	}
	if err != nil {
		led.Close()
		return engine.Result{}, nil, err
	}
	topo := c.cfg.Topology
	if topo == "" {
		topo = "hub"
	}
	c.logf("ledger %s: restored %d records (%d torn bytes dropped, %d plan generation(s)); %s restart under plan %q from step %d",
		dir, len(rep.Records), rep.TornBytes, gens, topo, c.cfg.Plan.Name, restart.cut+1)
	d := &driver{c: c, w: w, steps: man.Assign.Run.Steps, addrs: addrs, seed: man.Assign.Snapshot,
		led: led, carry: restart}
	res, err := d.drive()
	if err != nil {
		return engine.Result{}, nil, err
	}
	return res, w, nil
}

// resumeSetup validates the manifest against the caller's expectation and
// rebuilds what ResumeRun drives with: the coordinator (configured from
// the manifest plus the resume's operational knobs), the seed workbench,
// and the worker addresses.
func resumeSetup(net transport.Network, dir string, led *ledger.Ledger, man *ledger.Manifest, rc ResumeConfig) (*Coordinator, *distill.Workbench, []string, error) {
	if err := validateManifest(dir, man, rc.Expect); err != nil {
		return nil, nil, nil, err
	}
	if err := led.SetSync(rc.Fsync); err != nil {
		return nil, nil, nil, err
	}
	w, err := BuildWorkbench(man.Assign.Spec)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := InstallSnapshot(w, man.Assign.Snapshot); err != nil {
		return nil, nil, nil, err
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
		Logf:              rc.Logf,
		Fsync:             rc.Fsync,
		Repartition:       rc.Repartition,
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = time.Duration(man.Assign.Run.HeartbeatMillis) * time.Millisecond
	}
	return NewCoordinator(net, cfg), w, addrs, nil
}

// replayLog recovers the restart carry from a ledger's record log. Each
// plan generation (the log splits at its repartition records; compacted
// checkpoints never straddle one) is replayed into a detached scratch
// run under its own plan: a superseded generation contributes the carry
// at its recorded cut, remapped onto the next plan — which also becomes
// c.cfg.Plan — and the final generation the accounted global cut, exactly
// what a live attempt failing at that point would have captured. It also
// reports how many generations the log spans.
func (c *Coordinator) replayLog(w *distill.Workbench, man *ledger.Manifest, rep *ledger.Replay, addrs []string) (*runCarry, int, error) {
	var carry *runCarry
	recs := rep.Records
	for gens := 1; ; gens++ {
		n := 0
		for n < len(recs) && recs[n].Type != ledger.TypeRepartition {
			n++
		}
		if n < len(recs) {
			// The original run repartitioned, so the resumed run keeps the
			// controller armed whether or not the caller re-asked for it.
			c.cfg.Repartition = true
		}
		scratch, err := c.newRun(w, man.Assign.Snapshot, man.Assign.Run.Steps, addrs)
		if err != nil {
			return nil, 0, err
		}
		scratch.installCarry(carry)
		if err := scratch.replayRecords(recs[:n]); err != nil {
			return nil, 0, err
		}
		if n == len(recs) {
			return scratch.captureCarry(), gens, nil
		}
		cut := recs[n]
		newPlan, err := wire.DecodePlan(cut.Payload)
		if err != nil {
			return nil, 0, fmt.Errorf("cluster: repartition record (cut after step %d): %w", cut.Step, err)
		}
		// The recorded step itself when every group's replayed history
		// covers it, else the highest earlier covered step (a torn tail can
		// lose snapshots the live cut held; replaying a few extra steps
		// under the next plan is bit-identical anyway), else the seed.
		carry = remapCarry(scratch.carryAt(cut.Step), c.cfg.Plan, newPlan, w)
		c.cfg.Plan = newPlan
		recs = recs[n+1:]
	}
}

// carryAt builds the carry at the highest step at or below step that
// every group's history covers (-1: the seed).
func (r *run) carryAt(step int) *runCarry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.carryLocked(r.coveredLocked(step))
}

// replayRecords replays one generation's records through the applier the
// live handlers commit theirs with.
func (r *run) replayRecords(recs []*ledger.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rec := range recs {
		if err := r.applyRecordLocked(rec); err != nil {
			return fmt.Errorf("cluster: ledger record %d (%v): %w", i, rec.Type, err)
		}
	}
	return nil
}

// applyRecordLocked is the one place the state a restart is computed from
// changes, for a record a device just reported as for one read back from
// the ledger: a snapshot enters its group's history, a loss row the matrix,
// a barrier release every device's mark.
func (r *run) applyRecordLocked(rec *ledger.Record) error {
	switch rec.Type {
	case ledger.TypeDevSnapshot:
		ds, ok := r.devs[rec.Dev]
		if !ok {
			return fmt.Errorf("unknown device %d", rec.Dev)
		}
		if err := r.checkSnapshot(rec.Dev, ds.place, rec.Params, rec.Velocity); err != nil {
			return err
		}
		if rec.Step > ds.snapStep {
			ds.snapStep = rec.Step
		}
		r.recordHistLocked(ds.place.gi, rec.Step, rec.Params, rec.Velocity)
	case ledger.TypeLosses:
		ds, ok := r.devs[rec.Dev]
		if !ok {
			return fmt.Errorf("unknown device %d", rec.Dev)
		}
		if err := r.checkLosses(ds, rec.Step, rec.Losses); err != nil {
			return err
		}
		r.recordLossesLocked(ds, rec.Step, rec.Losses)
	case ledger.TypeBarrier:
		// A released step was reached by every device.
		for _, ds := range r.devs {
			if rec.Step > ds.barrierSeen {
				ds.barrierSeen = rec.Step
			}
		}
	case ledger.TypeCheckpoint:
		// A compacted log: the children preserve their original order, so
		// replaying them is replaying the valid sub-history Compact kept.
		for _, child := range rec.Children {
			if err := r.applyRecordLocked(child); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unsupported record")
	}
	return nil
}
