package cluster

// The attempt driver: the one execution, recovery and resume path of a
// cluster run, whichever topology carries its tensors.
//
// A run is a sequence of attempts, and every attempt starts the same way
// (place): dial a worker for each placement slot, build the peer
// directory from who answered, open each session with one Assign frame.
// Each attempt is a fresh set of sessions (fresh epoch, fresh
// connections, fresh peer meshes under the ring) started at the global
// cut of the run's ledger.Account, which every attempt shares and every
// record — live, or replayed by a resume — is applied to: the newest step
// every group snapshotted and every device accounted for; -1 is the seed,
// where attempt zero starts with no restart states to install. Anything
// that supersedes an attempt — a lost worker, a peer edge degrading to
// relay, a planned repartition, a coordinator restarted from its ledger —
// rewinds the account, and every device, to that cut and starts the next
// attempt there; a repartition also remaps the account onto its plan. The
// teacher relay makes each replayed step a pure function of the restored
// state and the batches, so the trajectory stays bit-identical to a
// fault-free run. One rule covers every plan because it never asks which
// in-flight exchange a dead worker left half-done: a ring collective
// cannot be replayed one-sided, whether its edges are direct or relayed.

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
)

// workerLostError marks a worker-connection loss in an attempt, or a
// peer edge a worker reported down — an attempt fails on the first; the
// driver catches it and degrades the edge or restarts from the global
// cut (budget permitting) instead of failing the run.
type workerLostError struct {
	cause error
	down  [][2]int // the edge reported down, if that is the loss
}

func (e workerLostError) Error() string { return e.cause.Error() }
func (e workerLostError) Unwrap() error { return e.cause }

// driver threads one run through its attempts and holds what they share.
// newDriver sets the first five fields; a resume also replays its record
// log into acct and hands over the open ledger and superseded.
type driver struct {
	c     *Coordinator
	w     *distill.Workbench
	addrs []string
	// setup is the Assign every session opens from before its attempt
	// fills in the plan, devices, peers, epoch, relayed edges and states;
	// a durable run's manifest holds it. Its Snapshot is the run's seed
	// weights, captured once: group leaders install trained weights into w
	// as they finish, which an attempt that is later superseded may
	// already have done.
	setup wire.Assign
	// acct is the run's restart state. Only the running attempt's core
	// applies records to it, on the driver goroutine.
	acct *ledger.Account
	led  *ledger.Ledger // durable-run store shared by every attempt; nil for in-memory runs
	// applied is the repartitioner's set of partition fingerprints
	// already run; nil when repartitioning is off.
	applied map[string]bool
	// superseded is set once sessions were superseded (a restart or a
	// resume), so a slot whose worker is gone may land on a survivor.
	// Attempt zero of a fresh run waits for each slot's own worker.
	superseded bool
	degraded   [][2]int // ring edges degraded to relay, accumulated across attempts
}

// drive runs attempts until one completes or the restart budget is spent.
// Two kinds of supersession restart the loop: worker losses (retried
// against the restart budget, or budget-free when only a peer edge is
// severed and it can degrade to relay) and planned repartitions
// (deliberate, budget-free — the account remaps its state onto the
// measured re-plan and the run resumes on the new placement). Every
// attempt starts at the account's rewound cut. Protocol errors fail the
// run immediately. drive owns the ledger — handed over, or created here
// with the setup as its manifest — and closes it on return.
func (d *driver) drive() (engine.Result, error) {
	c := d.c
	if d.led == nil && c.cfg.LedgerDir != "" {
		led, err := c.createLedger(d.setup, d.addrs)
		if err != nil {
			return engine.Result{}, err
		}
		d.led = led
	}
	defer func() {
		if d.led != nil {
			d.led.Close()
		}
	}()
	if c.cfg.Repartition {
		d.applied = map[string]bool{sched.Fingerprint(d.acct.Plan()): true}
	}
	// Epochs only need to be unique per attempt within the workers'
	// lifetime, so stale peer dials from a superseded attempt (or a
	// crashed coordinator's) can never wire into a new mesh.
	epochBase := time.Now().UnixNano()
	restarts := 0
	for attempt := 0; ; attempt++ {
		res, err := d.attempt(epochBase + int64(attempt))
		if err == nil {
			return res, nil
		}
		d.superseded = true
		var pr *plannedRepartition
		if errors.As(err, &pr) {
			// The account's cut is authoritative (snapshots may have
			// advanced it past the decision's). The record carries it with
			// the new plan and, like every record, is applied and then
			// appended, so a killed coordinator resumes onto the right
			// placement generation.
			rec := ledger.Repartition(d.acct.Cut(), wire.EncodePlan(pr.Plan))
			if aerr := d.acct.Apply(rec); aerr != nil {
				return engine.Result{}, fmt.Errorf("cluster: %v record: %w", rec.Type, aerr)
			}
			if d.led != nil {
				if lerr := d.led.Append(rec); lerr != nil {
					return engine.Result{}, lerr
				}
			}
			pr.Step = rec.Step
			c.emit(pr.Event)
			continue
		}
		var lost workerLostError
		if !errors.As(err, &lost) {
			return engine.Result{}, err
		}
		cut := d.acct.Cut()
		if len(lost.down) > 0 && c.cfg.RetryBudget > 0 && c.workersAlive(d.addrs) {
			// Tier 2, graceful degradation: every worker is reachable but
			// a peer edge is persistently severed (a healing partition
			// that never healed). Relay just the broken edges
			// through the coordinator — bit-identical, since the same frames
			// reach the same inboxes in the same order — and restart from
			// the global cut without consuming the restart budget.
			d.degraded = mergeEdges(d.degraded, lost.down)
			c.emit(Event{Kind: EventDegrade, Edges: lost.down, Step: cut + 1})
			continue
		}
		if restarts >= c.cfg.MaxRestarts {
			return engine.Result{}, err
		}
		restarts++
		c.emit(Event{Kind: EventRestart, Cause: err, Step: cut + 1, Restart: restarts, MaxRestarts: c.cfg.MaxRestarts})
	}
}

// mergeEdges appends newly reported degraded edges, dropping duplicates
// (both orientations name the same link).
func mergeEdges(have, add [][2]int) [][2]int {
	for _, e := range add {
		if !slices.ContainsFunc(have, func(h [2]int) bool { return h == e || h == [2]int{e[1], e[0]} }) {
			have = append(have, e)
		}
	}
	return have
}

// workersAlive probes every worker address with a dial-and-hello
// handshake, distinguishing a severed peer edge (all workers fine,
// degradable) from a dead worker (restart). Probe connections are closed
// right after the hello, and read to the error that close gives, which
// hands a TCP connection's read buffer back; a worker counts no session
// for them.
func (c *Coordinator) workersAlive(addrs []string) bool {
	for _, addr := range addrs {
		conn, err := dialHello(c.net, c.clock, addr, transport.Deadline(c.clock, c.joinTimeout()))
		if err != nil {
			return false
		}
		conn.Close()
		recvToError(conn)
	}
	return true
}

// recvToError reads conn to its first error, releasing every frame it
// returns first. The caller knows the error comes: conn is closed, or
// its far end closes it. A connection's reading side ends on that error,
// which hands a TCP connection's read buffer back to the cache
// (transport.TCP).
func recvToError(conn transport.Conn) {
	for {
		f, err := conn.Recv()
		if err != nil {
			return
		}
		f.Release()
	}
}

// attempt executes one attempt end to end. The loop runs on this
// goroutine and teardown joins the readers before it returns, so every
// write the attempt made to the account is done before the next attempt
// reads it.
func (d *driver) attempt(epoch int64) (engine.Result, error) {
	r := d.newRun(epoch)
	err := r.place()
	var res engine.Result
	if err == nil {
		res, err = r.execute()
	}
	r.teardown(err)
	return res, err
}

// newRun rewinds the account and builds an attempt at its cut: every
// device restarts just past it, under the account's plan. Under the hub
// every peer edge of the attempt's own plan is relayed (a repartition
// changes the edges), under the ring only the edges degraded so far.
func (d *driver) newRun(epoch int64) *run {
	c := d.c
	cut := d.acct.Rewind()
	plan := d.acct.Plan()
	relayed := d.degraded
	if c.cfg.Topology != "ring" {
		relayed = planEdges(plan)
	}
	r := &run{co: c, addrs: d.addrs, assign: d.setup, cut: cut, superseded: d.superseded, led: d.led,
		stop: make(chan struct{}),
		core: &attemptCore{acct: d.acct, plan: plan, steps: d.setup.Run.Steps, workb: d.w,
			snapshots: c.faultTolerant(), heartbeat: c.cfg.HeartbeatInterval, metrics: c.cfg.Metrics,
			devs: make([]devState, plan.NumDevices()), barrier: make(map[int]int)}}
	r.assign.Plan, r.assign.Epoch = plan, epoch
	for _, e := range relayed {
		r.assign.Relayed = append(r.assign.Relayed, e[0], e[1])
	}
	for gi, g := range plan.Groups {
		for j, dev := range g.Devices {
			r.core.devs[dev] = devState{gi: gi, j: j, arrived: cut}
		}
	}
	if c.cfg.Trace {
		r.coTrack = obs.NewTracer(true).NewTrack("coordinator")
	}
	if d.applied != nil {
		// Fresh placement (or fresh hosting), fresh measurements; the
		// applied-fingerprint set persists across attempts.
		r.core.rp = newRepartitioner(d.applied, plan.NumDevices(), cut+1)
	}
	return r
}

// place opens this attempt's sessions: each placement slot is dialed
// fresh, in turn until the join deadline — its configured worker first
// and, on a restart, the others as fallback (workers with Rejoin stay up
// to accept replacements and can host several sessions). Attempt zero of a fresh run waits for the slot's
// own worker alone: workers may still be starting, and a fallback would
// put two slots on whichever came up first and leave the other process
// waiting on its session budget forever. All connections are held open
// until the actual placement is known, because every Assign must carry the
// final peer directory before any ring worker starts dialing its mesh.
func (r *run) place() error {
	placement := PlaceDevices(len(r.core.devs), len(r.addrs))
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
			r.co.emit(Event{Kind: EventPlaced, Worker: addr})
			continue
		}
		candidates := []string{addr}
		if r.superseded {
			for _, a := range r.addrs {
				if a != addr {
					candidates = append(candidates, a)
				}
			}
		}
		h := held{devices: placement[i]}
		deadline := transport.Deadline(r.co.clock, r.co.joinTimeout())
		err := transport.Retry(r.co.clock, deadline, nil, func() (err error) {
			for _, h.addr = range candidates {
				if h.conn, err = dialHello(r.co.net, r.co.clock, h.addr, deadline); err == nil {
					return nil
				}
			}
			return err
		})
		if err != nil {
			return bail(fmt.Errorf("cluster: no worker of %v accepted the placement within %v (last error: %v)",
				candidates, r.co.joinTimeout(), err))
		}
		holds = append(holds, h)
	}
	r.assign.Peers = make([]string, len(r.core.devs))
	for _, h := range holds {
		for _, d := range h.devices {
			r.assign.Peers[d] = h.addr
		}
	}
	for _, h := range holds {
		if err := h.conn.Send(r.sessionOpen(h.devices)); err != nil {
			// The worker died between handshake and assign: retryable, the
			// next attempt re-places around it.
			return bail(workerLostError{cause: fmt.Errorf("cluster: worker %s assign: %w", h.addr, err)})
		}
	}
	links := linkPolicy{epoch: r.assign.Epoch, net: r.co.net, clock: r.co.clock, budget: r.co.cfg.RetryBudget,
		absorbed: func(addr string, replayed int) {
			r.co.emit(Event{Kind: EventAbsorbed, Worker: addr, Replayed: replayed})
		}}
	sessions := make([]session, len(holds))
	for i, h := range holds {
		// The control link's far end is any device the session hosts: a
		// redial finds the session in the worker's registry by it.
		r.peers = append(r.peers, &peerConn{addr: h.addr, endpoint: links.endpoint(h.conn,
			int(wire.NoDev), h.devices[0], fmt.Sprintf("worker %s control link", h.addr), h.addr)})
		sessions[i] = session{addr: h.addr, devices: h.devices}
		r.co.emit(Event{Kind: EventPlaced, Worker: h.addr, Devices: h.devices})
	}
	r.routes = r.core.place(r.co.clock.Now(), sessions, r.assign.RelayedEdges())
	return nil
}

// sessionOpen encodes the Assign that opens a session for a set of
// devices. Past the seed it carries each device's state at this attempt's
// cut; at the seed there is nothing to restore — the Assign's snapshot and
// zero momentum are the state.
func (r *run) sessionOpen(devices []int) *wire.Frame {
	a := r.assign
	a.Devices = devices
	if r.cut >= 0 {
		for _, d := range devices {
			a.States = append(a.States, r.core.acct.State(d, r.cut))
		}
	}
	return wire.EncodeAssign(&a)
}
