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
// teacher
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
	"pipebd/internal/obs"
)

// workerLostError marks a worker-connection loss in an attempt; the
// driver catches it and restarts from the global cut (budget permitting)
// instead of failing the run.
type workerLostError struct{ cause error }

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
	// acct is the run's restart state. An attempt's handlers apply records
	// to it under the attempt's lock, and teardown's closed fence orders
	// every such write before the next attempt reads it.
	acct *ledger.Account
	led  *ledger.Ledger // durable-run store shared by every attempt; nil for in-memory runs
	rp   *repartitioner // nil when repartitioning is off
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
		d.rp = newRepartitioner(d.acct.Plan())
	}
	// Epochs only need to be unique per attempt within the workers'
	// lifetime, so stale peer dials from a superseded attempt (or a
	// crashed coordinator's) can never wire into a new mesh.
	epochBase := time.Now().UnixNano()
	restarts := 0
	for attempt := 0; ; attempt++ {
		res, linkDowns, err := d.attempt(epochBase + int64(attempt))
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
			rec := ledger.Repartition(d.acct.Cut(), wire.EncodePlan(pr.plan))
			if aerr := d.acct.Apply(rec); aerr != nil {
				return engine.Result{}, fmt.Errorf("cluster: %v record: %w", rec.Type, aerr)
			}
			if d.led != nil {
				if lerr := d.led.Append(rec); lerr != nil {
					return engine.Result{}, lerr
				}
			}
			c.cfg.Metrics.Add("repartitions", 1)
			c.logf("repartitioning after step %d: %v", rec.Step, err)
			continue
		}
		var lost workerLostError
		if !errors.As(err, &lost) {
			return engine.Result{}, err
		}
		cut := d.acct.Cut()
		if len(linkDowns) > 0 && c.cfg.RetryBudget > 0 && c.workersAlive(d.addrs) {
			// Tier 2, graceful degradation: every worker is reachable but
			// one or more peer edges are persistently severed (a healing
			// partition that never healed). Relay just the broken edges
			// through the coordinator — bit-identical, since the same frames
			// reach the same inboxes in the same order — and restart from
			// the global cut without consuming the restart budget.
			d.degraded = mergeEdges(d.degraded, linkDowns)
			c.cfg.Metrics.Add("degrades", 1)
			c.logf("degrading peer link(s) %v to relay; ring resumes from step %d on the remaining direct edges",
				linkDowns, cut+1)
			continue
		}
		if restarts >= c.cfg.MaxRestarts {
			return engine.Result{}, err
		}
		restarts++
		c.cfg.Metrics.Add("recoveries", 1)
		c.logf("attempt lost a worker (%v); restarting every device from step %d (restart %d of %d)",
			err, cut+1, restarts, c.cfg.MaxRestarts)
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

// attempt executes one attempt end to end and, on failure, also returns
// the peer edges it saw reported persistently down (for the driver's
// degrade classification).
func (d *driver) attempt(epoch int64) (engine.Result, [][2]int, error) {
	r := d.newRun(epoch)
	defer r.teardown()
	err := r.place()
	var res engine.Result
	if err == nil {
		res, err = d.c.execute(r)
	}
	if err != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		return engine.Result{}, r.linkDowns, err
	}
	return res, nil, nil
}

// newRun rewinds the account and builds an attempt at its cut: every
// device restarts just past it, under the account's plan.
func (d *driver) newRun(epoch int64) *run {
	c := d.c
	cut := d.acct.Rewind()
	plan := d.acct.Plan()
	r := &run{
		co: c, acct: d.acct, plan: plan, workb: d.w, addrs: d.addrs, assign: d.setup,
		cut: cut, superseded: d.superseded, repart: d.rp, led: d.led,
		byDev: make(map[int]*peerConn), devs: make(map[int]*devState),
		barrier:  make(map[int]int),
		finished: make(chan struct{}),
		failed:   make(chan struct{}),
	}
	r.assign.Plan, r.assign.Epoch = plan, epoch
	for gi, g := range plan.Groups {
		for j, dev := range g.Devices {
			r.devs[dev] = &devState{place: devPlace{gi: gi, j: j}, arrived: cut}
		}
	}
	r.setRelayed(d.degraded)
	if c.cfg.Trace {
		r.tracer = obs.NewTracer(true)
		r.coTrack = r.tracer.NewTrack("coordinator")
	}
	if d.rp != nil {
		// Fresh placement (or fresh hosting), fresh measurements; the
		// applied-fingerprint set persists across attempts.
		d.rp.resetMeasurements()
	}
	return r
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
		r.assign.Relayed = append(r.assign.Relayed, e[0], e[1])
		r.relays[e] = true
		r.relays[[2]int{e[1], e[0]}] = true
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
	placement := PlaceDevices(len(r.devs), len(r.addrs))
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
		if r.superseded {
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
	r.assign.Peers = make([]string, len(r.devs))
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
	for _, h := range holds {
		r.attach(h.conn, h.addr, h.devices)
		r.co.logf("worker %s hosting devices %v", h.addr, h.devices)
	}
	return nil
}

// sessionOpen encodes the Assign that opens a session for a set of
// devices. Past the seed it carries each device's state at this attempt's
// cut; at the seed there is nothing to restore — the Assign's snapshot and
// a fresh optimizer are the state.
func (r *run) sessionOpen(devices []int) *wire.Frame {
	a := r.assign
	a.Devices = devices
	if r.cut >= 0 {
		for _, d := range devices {
			a.States = append(a.States, r.acct.State(d, r.cut))
		}
	}
	return wire.EncodeAssign(&a)
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
