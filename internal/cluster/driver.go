package cluster

// The attempt driver: the one execution, recovery and resume path of a
// cluster run, whichever topology carries its tensors.
//
// A run is a sequence of attempts, and every attempt starts the same way
// (place): dial a worker for each placement slot, build the peer
// directory from who answered, open each session with one Assign frame.
// Each attempt is a fresh set of sessions (fresh epoch, fresh
// connections, fresh peer meshes under the ring) started at a global cut:
// the highest step for which every group holds snapshot parameters and
// every device's losses (and, without DPU, its barrier arrival) are
// already accounted at the coordinator; -1 is the seed, where attempt
// zero starts with no restart states to install. Anything that supersedes
// an attempt — a lost worker, a peer edge degrading to relay, a
// planned repartition, a coordinator restarted from its ledger — rewinds
// every device to that cut and starts the next attempt there. The teacher
// relay makes each replayed step a pure function of the restored state
// and the batches, so the trajectory stays bit-identical to a fault-free
// run. One rule covers every plan because it never asks which in-flight
// exchange a dead worker left half-done: a ring collective cannot be
// replayed one-sided, whether its edges are direct or relayed.

import (
	"errors"
	"fmt"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/tensor"
)

// histEntry is one group's restart state after a step: the snapshotted
// student parameters and optimizer velocities (bit-identical across the
// group's members).
type histEntry struct {
	params, velocity []*tensor.Tensor
}

// workerLostError marks a worker-connection loss in an attempt; the
// driver catches it and restarts from the global cut (budget permitting)
// instead of failing the run.
type workerLostError struct{ cause error }

func (e workerLostError) Error() string { return e.cause.Error() }
func (e workerLostError) Unwrap() error { return e.cause }

// runCarry is the state one attempt hands the next: the global cut, the
// group parameters at that cut (nil when the cut is the seed), the loss
// matrix holding the completed prefix's rows, and the peer edges the
// failed attempt reported persistently down (for the driver's degrade
// classification).
type runCarry struct {
	cut       int
	params    [][]*tensor.Tensor
	velocity  [][]*tensor.Tensor
	losses    [][][]float64
	linkDowns [][2]int
}

// driver threads one run through its attempts. A fresh run sets the first
// five fields; a resumed one also hands over the open ledger and the carry
// its record log replayed to.
type driver struct {
	c     *Coordinator
	w     *distill.Workbench
	steps int
	addrs []string
	// seed is the run's starting weights, captured once: group leaders
	// install trained weights into w as they finish, which an attempt that
	// is later superseded may already have done.
	seed wire.Snapshot
	led  *ledger.Ledger // durable-run store shared by every attempt; nil for in-memory runs
	rp   *repartitioner // nil when repartitioning is off
	// carry is where the next attempt starts. nil is attempt zero of a
	// fresh run, which starts at the seed and waits for each slot's own
	// worker; any carry means sessions were superseded (restart or resume),
	// so a slot whose worker is gone may land on a survivor.
	carry    *runCarry
	degraded [][2]int // ring edges degraded to relay, accumulated across attempts
}

// drive runs attempts until one completes or the restart budget is spent.
// Two kinds of supersession restart the loop: worker losses (retried
// against the restart budget, or budget-free when only a peer edge is
// severed and it can degrade to relay) and planned repartitions
// (deliberate, budget-free — the carry is remapped onto the measured
// re-plan and the run resumes on the new placement). Protocol errors fail
// the run immediately. drive owns the ledger — handed over or created by
// attempt zero — and closes it on return.
func (d *driver) drive() (engine.Result, error) {
	c := d.c
	defer func() {
		if d.led != nil {
			d.led.Close()
		}
	}()
	if c.cfg.Repartition {
		d.rp = newRepartitioner(c.cfg.Plan)
	}
	// Epochs only need to be unique per attempt within the workers'
	// lifetime, so stale peer dials from a superseded attempt (or a
	// crashed coordinator's) can never wire into a new mesh.
	epochBase := time.Now().UnixNano()
	restarts := 0
	for attempt := 0; ; attempt++ {
		res, next, err := d.attempt(epochBase + int64(attempt))
		if err == nil {
			return res, nil
		}
		var pr *plannedRepartition
		if errors.As(err, &pr) {
			// The cut the carry captured is authoritative (snapshots may
			// have advanced it past the decision's); the ledger records
			// it with the new plan so a killed coordinator resumes onto
			// the right placement generation.
			d.carry = remapCarry(next, c.cfg.Plan, pr.plan, d.w)
			if d.led != nil {
				if lerr := d.led.Append(ledger.Repartition(d.carry.cut, wire.EncodePlan(pr.plan))); lerr != nil {
					return engine.Result{}, lerr
				}
			}
			c.cfg.Plan = pr.plan
			c.cfg.Metrics.Add("repartitions", 1)
			c.logf("repartitioning after step %d: %v", d.carry.cut, err)
			continue
		}
		var lost workerLostError
		if !errors.As(err, &lost) {
			return engine.Result{}, err
		}
		if len(next.linkDowns) > 0 && c.cfg.RetryBudget > 0 && c.workersAlive(d.addrs) {
			// Tier 2, graceful degradation: every worker is reachable but
			// one or more peer edges are persistently severed (a healing
			// partition that never healed). Relay just the broken edges
			// through the coordinator — bit-identical, since the same frames
			// reach the same inboxes in the same order — and restart from
			// the global cut without consuming the restart budget.
			d.degraded = mergeEdges(d.degraded, next.linkDowns)
			d.carry = next
			c.cfg.Metrics.Add("degrades", 1)
			c.logf("degrading peer link(s) %v to relay; ring resumes from step %d on the remaining direct edges",
				next.linkDowns, next.cut+1)
			next.linkDowns = nil // consumed: a retry from this carry must not degrade again
			continue
		}
		if restarts >= c.cfg.MaxRestarts {
			return engine.Result{}, err
		}
		restarts++
		c.cfg.Metrics.Add("recoveries", 1)
		d.carry = next
		c.logf("attempt lost a worker (%v); restarting every device from step %d (restart %d of %d)",
			err, next.cut+1, restarts, c.cfg.MaxRestarts)
	}
}

// mergeEdges appends newly reported degraded edges, dropping duplicates
// (both orientations name the same link).
func mergeEdges(have, add [][2]int) [][2]int {
	for _, e := range add {
		dup := false
		for _, h := range have {
			if (h[0] == e[0] && h[1] == e[1]) || (h[0] == e[1] && h[1] == e[0]) {
				dup = true
				break
			}
		}
		if !dup {
			have = append(have, e)
		}
	}
	return have
}

// workersAlive probes every worker address with a dial-and-hello
// handshake, distinguishing a severed peer edge (all workers fine,
// degradable) from a dead worker (restart). Probe connections are closed
// right after the hello; a worker counts no session for them.
func (c *Coordinator) workersAlive(addrs []string) bool {
	for _, addr := range addrs {
		conn, err := dialHello(c.net, addr, time.Now().Add(c.joinTimeout()))
		if err != nil {
			c.logf("liveness probe: worker %s did not handshake (%v); not degradable", addr, err)
			return false
		}
		conn.Close()
	}
	return true
}

// attempt executes one attempt end to end and, on failure, captures the
// carry the next attempt restarts from.
func (d *driver) attempt(epoch int64) (engine.Result, *runCarry, error) {
	c := d.c
	r, err := c.newRun(d.w, d.seed, d.steps, d.addrs)
	if err != nil {
		return engine.Result{}, nil, err
	}
	if d.led == nil && c.cfg.LedgerDir != "" {
		// Attempt zero of a fresh durable run: its setup is the manifest.
		if d.led, err = c.createLedger(r); err != nil {
			return engine.Result{}, nil, err
		}
	}
	r.led = d.led
	r.setRelayed(d.degraded)
	r.epoch = epoch
	if d.rp != nil {
		// Fresh placement (or fresh hosting), fresh measurements; the
		// applied-fingerprint set persists across attempts.
		d.rp.resetMeasurements()
		r.repart = d.rp
	}
	defer r.teardown()
	r.installCarry(d.carry)
	var res engine.Result
	if err = r.place(); err == nil {
		res, err = c.execute(r)
	}
	if err != nil {
		// When placement failed nothing ran, and the captured cut is the
		// one this attempt was meant to start from.
		return engine.Result{}, r.captureCarry(), err
	}
	return res, nil, nil
}

// setRelayed installs the attempt's routing: under the hub every peer
// edge of the attempt's own plan is relayed (a repartition changes the
// edges), under the ring only the edges degraded so far.
func (r *run) setRelayed(degraded [][2]int) {
	edges := degraded
	if r.co.cfg.Topology != "ring" {
		edges = planEdges(r.plan)
	}
	r.relays = make(map[[2]int]bool, 2*len(edges))
	for _, e := range edges {
		r.relayed = append(r.relayed, e[0], e[1])
		r.relays[e] = true
		r.relays[[2]int{e[1], e[0]}] = true
	}
}

// installCarry rewinds a fresh run's state to a previous attempt's global
// cut: every device restarts at cut+1 with the carried group parameters,
// and the loss matrix keeps the rows the completed prefix already
// produced (replayed rows are rewritten bit-identically). A nil carry is
// attempt zero.
func (r *run) installCarry(c *runCarry) {
	if c == nil {
		return
	}
	r.carry = c
	r.losses = c.losses
	for _, ds := range r.devs {
		ds.snapStep = c.cut
		ds.lossSeen = c.cut
		ds.barrierSeen = c.cut
	}
	if c.cut >= 0 && r.histG != nil {
		// Seed the history with the cut itself: a second failure before
		// the first new snapshot must restart here again, not regress.
		for gi := range r.histG {
			r.histG[gi][c.cut] = histEntry{params: c.params[gi], velocity: c.velocity[gi]}
		}
	}
}

// captureCarry snapshots what a failed attempt proved: the global cut and
// the group parameters held for it, plus the loss rows of the completed
// prefix.
func (r *run) captureCarry() *runCarry {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.carryLocked(r.cutLocked())
	c.linkDowns = r.linkDowns
	return c
}

// carryLocked builds the carry for a cut every group's history covers
// (or -1, the seed).
func (r *run) carryLocked(cut int) *runCarry {
	c := &runCarry{cut: cut, losses: r.losses,
		params:   make([][]*tensor.Tensor, len(r.plan.Groups)),
		velocity: make([][]*tensor.Tensor, len(r.plan.Groups))}
	if cut >= 0 {
		for gi := range r.histG {
			e := r.histG[gi][cut]
			c.params[gi], c.velocity[gi] = e.params, e.velocity
		}
	}
	return c
}

// cutLocked returns the global cut: the highest step that is both covered
// by every group's held restart state and fully accounted for by every
// device; -1 means the seed. Devices send their step's losses before the
// snapshot covering it on the same connection, so any loss row the cut
// claims is already recorded.
func (r *run) cutLocked() int {
	acct := r.steps - 1
	for _, ds := range r.devs {
		// A device has accounted for a step once its loss row is recorded
		// and — under the global barrier — its arrival was counted.
		a := ds.lossSeen
		if !r.co.cfg.DPU && ds.barrierSeen < a {
			a = ds.barrierSeen
		}
		if a < acct {
			acct = a
		}
	}
	return r.coveredLocked(acct)
}

// coveredLocked returns the highest step at or below from for which every
// group holds restart state; -1 when there is none (or no history is
// kept: runs without fault tolerance can only restart from the seed).
func (r *run) coveredLocked(from int) int {
	if r.histG == nil {
		return -1
	}
	for s := from; s >= 0; s-- {
		all := true
		for _, h := range r.histG {
			if _, ok := h[s]; !ok {
				all = false
				break
			}
		}
		if all {
			return s
		}
	}
	return -1
}

// recordHistLocked stores one group's restart state for a step and drops
// entries the advancing cut has obsoleted. A ledger replay can present a
// step twice (a restart re-snapshots the steps it replays); the copies are
// bit-identical, so the later one simply replaces the earlier.
func (r *run) recordHistLocked(gi, step int, params, velocity []*tensor.Tensor) {
	if r.histG == nil {
		return
	}
	r.histG[gi][step] = histEntry{params: params, velocity: velocity}
	if cut := r.cutLocked(); cut > 0 {
		for _, h := range r.histG {
			for s := range h {
				if s < cut {
					delete(h, s)
				}
			}
		}
	}
}

// place opens this attempt's sessions: each placement slot is dialed
// fresh — its configured worker first and, on a restart, the others as
// fallback (workers with Rejoin stay up to accept replacements and can
// host several sessions). Attempt zero of a fresh run waits for the slot's
// own worker alone: workers may still be starting, and a fallback would
// put two slots on whichever came up first and leave the other process
// waiting on its session budget forever. All connections are held open
// until the actual placement is known, because every Assign must carry the
// final peer directory before any ring worker starts dialing its mesh.
func (r *run) place() error {
	placement := PlaceDevices(r.nDev, len(r.addrs))
	type held struct {
		conn    transport.Conn
		addr    string
		devices []int
	}
	var holds []held
	bail := func(err error) error {
		for _, h := range holds {
			h.conn.Close()
		}
		return err
	}
	for i, addr := range r.addrs {
		if len(placement[i]) == 0 {
			r.co.logf("worker %s: no devices to place, skipping", addr)
			continue
		}
		candidates := []string{addr}
		if r.carry != nil {
			for _, a := range r.addrs {
				if a != addr {
					candidates = append(candidates, a)
				}
			}
		}
		conn, actual, err := r.dialWorker(candidates, time.Now().Add(r.co.joinTimeout()))
		if err != nil {
			return bail(err)
		}
		holds = append(holds, held{conn, actual, placement[i]})
	}
	r.peerDir = make([]string, r.nDev)
	for _, h := range holds {
		for _, d := range h.devices {
			r.peerDir[d] = h.addr
		}
	}
	for _, h := range holds {
		if err := h.conn.Send(r.sessionOpen(h.devices)); err != nil {
			// The worker died between handshake and assign: retryable, the
			// next attempt re-places around it.
			return bail(workerLostError{cause: fmt.Errorf("cluster: worker %s assign: %w", h.addr, err)})
		}
	}
	for _, h := range holds {
		r.attach(h.conn, h.addr, h.devices)
		r.co.logf("worker %s hosting devices %v", h.addr, h.devices)
	}
	return nil
}

// sessionOpen encodes the Assign that opens a session for a set of
// devices. Past the seed it carries the group parameters at this attempt's
// cut; at the seed there is nothing to restore — the Assign's snapshot and
// a fresh optimizer are the state.
func (r *run) sessionOpen(devices []int) *wire.Frame {
	a := &wire.Assign{Plan: r.plan, Spec: r.co.cfg.Spec,
		Run: r.runCfg, Devices: devices, Snapshot: r.seedSnap,
		Peers: r.peerDir, Epoch: r.epoch, Relayed: r.relayed}
	if c := r.carry; c != nil && c.cut >= 0 {
		for _, d := range devices {
			gi := r.devs[d].place.gi
			a.States = append(a.States, wire.DeviceState{Dev: d, Step: c.cut,
				Params: c.params[gi], Velocity: c.velocity[gi]})
		}
	}
	return wire.EncodeAssign(a)
}

// dialWorker finds a worker among the candidates that accepts a
// connection and presents its hello, cycling until the deadline. The
// caller owns the returned connection and sends the session's Assign on
// it.
func (r *run) dialWorker(candidates []string, deadline time.Time) (transport.Conn, string, error) {
	var lastErr error
	for {
		for _, addr := range candidates {
			conn, err := dialHello(r.co.net, addr, deadline)
			if err == nil {
				return conn, addr, nil
			}
			lastErr = err
		}
		if time.Now().After(deadline) {
			return nil, "", fmt.Errorf("cluster: no worker of %v accepted the placement within %v (last error: %v)",
				candidates, r.co.joinTimeout(), lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
