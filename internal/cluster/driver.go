package cluster

// The attempt driver: the one execution, recovery and resume path of a
// cluster run, whichever topology carries its tensors.
//
// A run is a sequence of attempts. Each attempt is a fresh set of sessions
// (fresh epoch, fresh connections, fresh peer meshes under the ring)
// started at a global cut: the highest step for which every group holds
// snapshot parameters and every device's losses (and, without DPU, its
// barrier arrival) are already accounted at the coordinator; -1 is the
// seed. Anything that supersedes an attempt — a lost worker, a peer edge
// degrading to hub relay, a planned repartition, a coordinator restarted
// from its ledger — rewinds every device to that cut and starts the next
// attempt there. The teacher relay makes each replayed step a pure
// function of the restored state and the re-fed batches, so the
// trajectory stays bit-identical to a fault-free run. One rule covers
// every plan because it never asks which in-flight exchange a dead worker
// left half-done: a ring collective cannot be replayed one-sided, and the
// hub gains nothing from being the exception.

import (
	"errors"
	"fmt"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
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
	c       *Coordinator
	w       *distill.Workbench
	batches []dataset.Batch
	addrs   []string
	// seed is the run's starting weights, captured once: group leaders
	// install trained weights into w as they finish, which an attempt that
	// is later superseded may already have done.
	seed wire.Snapshot
	led  *ledger.Ledger // durable-run store shared by every attempt; nil for in-memory runs
	rp   *repartitioner // nil when repartitioning is off
	// carry is where the next attempt starts. nil is attempt zero of a
	// fresh run, which joins with Assign frames; any carry means sessions
	// were superseded (restart or resume) and re-places with Resume frames.
	carry    *runCarry
	degraded [][2]int // peer edges routed via hub relay, accumulated across attempts
}

// drive runs attempts until one completes or the restart budget is spent.
// Two kinds of supersession restart the loop: worker losses (retried
// against the restart budget, or budget-free when only a peer edge is
// severed and it can degrade to hub relay) and planned repartitions
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
	if c.cfg.Repartition.Enabled {
		d.rp = newRepartitioner(c.cfg.Repartition, c.cfg.Plan)
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
		if len(next.linkDowns) > 0 && c.cfg.Retry.Enabled() && c.workersAlive(d.addrs) {
			// Tier 2, graceful degradation: every worker is reachable but
			// one or more peer edges are persistently severed (a healing
			// partition that never healed). Route just the broken edges
			// through the coordinator hub — bit-identical, since hub and
			// ring share the same evaluation order — and restart from the
			// global cut without consuming the restart budget.
			d.degraded = mergeEdges(d.degraded, next.linkDowns)
			d.carry = next
			c.cfg.Metrics.Add("degrades", 1)
			c.logf("degrading peer link(s) %v to hub relay; ring resumes from step %d on the remaining direct edges",
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
// right after the hello; the worker logs them as failed sessions.
func (c *Coordinator) workersAlive(addrs []string) bool {
	for _, addr := range addrs {
		conn, err := c.net.Dial(addr)
		if err != nil {
			c.logf("liveness probe: worker %s unreachable (%v); not degradable", addr, err)
			return false
		}
		hello, err := recvDeadline(conn, time.Now().Add(c.joinTimeout()))
		conn.Close()
		if err != nil || hello.Kind != wire.KindHello {
			c.logf("liveness probe: worker %s did not handshake (%v); not degradable", addr, err)
			return false
		}
	}
	return true
}

// attempt executes one attempt end to end and, on failure, captures the
// carry the next attempt restarts from.
func (d *driver) attempt(epoch int64) (engine.Result, *runCarry, error) {
	c := d.c
	r, err := c.newRun(d.w, d.seed, d.batches, d.addrs)
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
	r.setDegraded(d.degraded)
	r.epoch = epoch
	if d.rp != nil {
		// Fresh placement (or fresh hosting), fresh measurements; the
		// applied-fingerprint set persists across attempts.
		d.rp.resetMeasurements()
		r.repart = d.rp
	}
	defer r.teardown()
	r.installCarry(d.carry)
	if d.carry != nil {
		err = r.rejoin()
	} else {
		err = r.join()
	}
	if err != nil {
		// Nothing ran: the next attempt (if the error is retryable) starts
		// where this one was meant to.
		return engine.Result{}, d.carry, err
	}
	res, err := c.execute(r)
	if err != nil {
		return engine.Result{}, r.captureCarry(), err
	}
	return res, nil, nil
}

// installCarry rewinds a fresh run's state to a previous attempt's global
// cut: every device restarts at cut+1 with the carried group parameters,
// the batch feed restarts there, and the loss matrix keeps the rows the
// completed prefix already produced (replayed rows are rewritten
// bit-identically). A nil carry is attempt zero.
func (r *run) installCarry(c *runCarry) {
	if c == nil {
		return
	}
	r.carry = c
	r.losses = c.losses
	for _, ds := range r.devs {
		ds.snapStep = c.cut
		ds.outputSeen = c.cut
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

// startStep is the first step this attempt runs: just past its cut.
func (r *run) startStep() int {
	if r.carry == nil {
		return 0
	}
	return r.carry.cut + 1
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

// recordHistLocked stores one group's restart state for a step (first
// writer wins; members are bit-identical) and drops entries the advancing
// cut has obsoleted.
func (r *run) recordHistLocked(gi, step int, params, velocity []*tensor.Tensor) {
	if r.histG == nil {
		return
	}
	if _, ok := r.histG[gi][step]; !ok {
		r.histG[gi][step] = histEntry{params: params, velocity: velocity}
	}
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

// rejoin re-places every device for a restart attempt: the superseded
// attempt's sessions are gone (workers with Rejoin stay up to accept
// replacements), so each placement slot is dialed fresh — its configured
// worker first, the survivors as fallback. All connections are held open
// until the actual placement is known, because every Resume must carry
// the final peer directory before any ring worker starts dialing its mesh.
func (r *run) rejoin() error {
	placement := PlaceDevices(r.nDev, len(r.addrs))
	type held struct {
		conn    transport.Conn
		addr    string
		devices []int
		sid     int64
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
			continue
		}
		candidates := []string{addr}
		for _, a := range r.addrs {
			if a != addr {
				candidates = append(candidates, a)
			}
		}
		conn, actual, err := r.dialHandshake(candidates, time.Now().Add(r.co.joinTimeout()))
		if err != nil {
			return bail(err)
		}
		holds = append(holds, held{conn, actual, placement[i], r.newSessionID()})
	}
	r.peerDir = make([]string, r.nDev)
	for _, h := range holds {
		for _, d := range h.devices {
			r.peerDir[d] = h.addr
		}
	}
	for _, h := range holds {
		if err := h.conn.Send(r.buildResume(h.devices, h.sid)); err != nil {
			// The worker died between handshake and resume: retryable, the
			// next attempt re-places around it.
			return bail(workerLostError{cause: fmt.Errorf("cluster: worker %s resume: %w", h.addr, err)})
		}
	}
	for _, h := range holds {
		r.attach(h.conn, h.addr, h.devices, h.sid)
		r.co.logf("worker %s hosting devices %v, restarting from step %d", h.addr, h.devices, r.startStep())
	}
	return nil
}

// buildResume encodes the Resume frame that restarts a set of devices
// from this attempt's cut: the carried group parameters, or the seed
// weights with zero momentum when the cut is the seed.
func (r *run) buildResume(devices []int, sid int64) *wire.Frame {
	res := &wire.Resume{Assign: wire.Assign{Plan: r.plan, Spec: r.co.cfg.Spec,
		Run: r.runCfg, Devices: devices, Snapshot: r.seedSnap,
		Peers: r.peerDir, Epoch: r.epoch, Session: sid, Degraded: r.degraded,
		Inputs: r.prestageInputs(devices)}}
	for _, d := range devices {
		gi := r.devs[d].place.gi
		st := wire.DeviceState{Dev: d, Step: -1}
		if c := r.carry; c != nil && c.cut >= 0 {
			st.Step, st.Params, st.Velocity = c.cut, c.params[gi], c.velocity[gi]
		} else {
			st.Params = r.seedGroupParams(gi)
			st.Velocity = zeroLike(st.Params)
		}
		res.States = append(res.States, st)
	}
	return wire.EncodeResume(res)
}

// dialHandshake finds a worker among the candidates that accepts a
// connection and presents its hello, cycling until the deadline. The
// caller owns the returned connection and sends the session's Resume on
// it.
func (r *run) dialHandshake(candidates []string, deadline time.Time) (transport.Conn, string, error) {
	var lastErr error
	for {
		for _, addr := range candidates {
			conn, err := r.net().Dial(addr)
			if err != nil {
				lastErr = err
				continue
			}
			hello, err := recvDeadline(conn, deadline)
			if err != nil {
				conn.Close()
				lastErr = err
				continue
			}
			if hello.Kind != wire.KindHello {
				conn.Close()
				lastErr = fmt.Errorf("worker %s sent %v, want hello", addr, hello.Kind)
				continue
			}
			return conn, addr, nil
		}
		if time.Now().After(deadline) {
			return nil, "", fmt.Errorf("no worker accepted the placement within %v (last error: %v)", r.co.joinTimeout(), lastErr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// seedGroupParams returns the seed student parameters of a group,
// flattened in the device's GradTensors order (blocks in group order,
// params in declaration order); the tensors are the immutable seed
// snapshot's own.
func (r *run) seedGroupParams(gi int) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, b := range r.plan.Groups[gi].Blocks {
		out = append(out, r.seedSnap.Student[b]...)
	}
	return out
}

func zeroLike(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = tensor.New(t.Shape()...)
	}
	return out
}
