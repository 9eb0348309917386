package ledger

import (
	"fmt"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// Account is a run's restart state, and the one place its global cut is
// computed. It applies every record type — live, as the coordinator
// commits a record before appending it, or replayed from a log by a
// resume or by Compact — and checks each against the current plan, the
// step count and the seed snapshot's slab lengths. The teacher is frozen,
// so a restart needs only each group's value and velocity slabs at one
// step:
// the account keeps each group's snapshots back to the cut, the loss
// matrix, every device's newest loss row, the newest barrier release and
// the current plan. A snapshot stays encoded: the account checks its
// tensor headers, keeps a copy of its bytes in a buffer it recycles once
// the step falls below the cut, and decodes it only for a restart (State)
// or a repartition. It does no I/O and is not safe for concurrent use.
type Account struct {
	steps int
	dpu   bool
	// slabs holds each block's slab length, the seed's: a snapshot of the
	// block carries two slabs of that many values.
	slabs []int

	plan    sched.Plan
	at      []place          // device → its group and rank under plan
	loss    []int            // device → newest step with a recorded loss row
	release int              // newest released barrier step
	snaps   []map[int][]byte // [gi] step → the group's restart state, encoded, back to the cut
	free    [][]byte         // buffers of snapshots that fell below the cut
	losses  [][][]float64    // [gi][j*len(Blocks)+bi][step]
}

type place struct{ gi, j int }

// NewAccount returns the account of a run that has not started: a's plan,
// step count, DPU switch and seed snapshot; no record applied.
func NewAccount(a *wire.Assign) (*Account, error) {
	if err := a.Plan.Validate(a.Plan.NumDevices(), len(a.Snapshot.Student)); err != nil {
		return nil, err
	}
	if a.Run.Steps < 1 {
		return nil, fmt.Errorf("ledger: a run of %d steps", a.Run.Steps)
	}
	acct := &Account{steps: a.Run.Steps, dpu: a.Run.DPU}
	for _, slab := range a.Snapshot.Student {
		acct.slabs = append(acct.slabs, slab.Numel())
	}
	acct.setPlan(a.Plan, -1)
	for _, rows := range acct.losses {
		for i := range rows {
			rows[i] = make([]float64, a.Run.Steps)
		}
	}
	return acct, nil
}

// setPlan installs plan with every mark at cut, no snapshot held and an
// empty loss row for every member of every block.
func (a *Account) setPlan(plan sched.Plan, cut int) {
	n := plan.NumDevices()
	a.plan = plan
	a.at = make([]place, n)
	a.loss = make([]int, n)
	a.snaps = make([]map[int][]byte, len(plan.Groups))
	a.losses = make([][][]float64, len(plan.Groups))
	for gi, g := range plan.Groups {
		a.snaps[gi] = map[int][]byte{}
		a.losses[gi] = make([][]float64, len(g.Blocks)*g.Split())
		for j, d := range g.Devices {
			a.at[d] = place{gi, j}
			a.loss[d] = cut
		}
	}
	a.release = cut
}

// Plan is the plan the run trains under now.
func (a *Account) Plan() sched.Plan { return a.plan }

// Losses is the loss matrix, [gi][j*len(Blocks)+bi][step] under Plan.
func (a *Account) Losses() [][][]float64 { return a.losses }

// Marks reports what device dev has accounted for: the newest step of its
// recorded loss rows and of its snapshots (its group's, when it is the
// group's rank 0, which alone snapshots; -1 otherwise).
func (a *Account) Marks(dev int) (loss, snap int) {
	p := a.at[dev]
	snap = -1
	if p.j == 0 {
		for s := range a.snaps[p.gi] {
			snap = max(snap, s)
		}
	}
	return a.loss[dev], snap
}

// CheckStep is the range check every record, and every barrier arrival,
// passes: a step of this run lies in [0, steps).
func (a *Account) CheckStep(step int) error {
	if step < 0 || step >= a.steps {
		return fmt.Errorf("step %d outside the run's %d steps", step, a.steps)
	}
	return nil
}

// Cut is the global cut: the newest step every group holds a snapshot
// for and every device has accounted for — its loss row recorded and,
// under the global barrier, the step released (the last arrival releases
// it, so no device is past the release). -1 is the seed. A device sends a
// step's losses before the snapshot that covers it on the same
// connection, so every loss row the cut claims is recorded.
func (a *Account) Cut() int {
	acct := a.steps - 1
	for _, s := range a.loss {
		acct = min(acct, s)
	}
	if !a.dpu {
		acct = min(acct, a.release)
	}
	return a.covered(acct)
}

// covered is the newest step at or below from for which every group
// holds a snapshot; -1 when there is none.
func (a *Account) covered(from int) int {
	for s := from; s >= 0; s-- {
		all := true
		for _, h := range a.snaps {
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

// Rewind restarts the run at the cut, as a worker-loss restart does, and
// returns it: only the cut's snapshots stay, and every mark moves back to
// the cut. The loss rows past it stay; the replayed steps rewrite them
// bit-identically.
func (a *Account) Rewind() int {
	cut := a.Cut()
	a.rewindTo(cut)
	return cut
}

func (a *Account) rewindTo(cut int) {
	for _, h := range a.snaps {
		for s := range h {
			if s != cut {
				a.drop(h, s)
			}
		}
	}
	for d := range a.loss {
		a.loss[d] = cut
	}
	a.release = cut
}

// drop forgets group history h's snapshot of step and keeps its buffer.
func (a *Account) drop(h map[int][]byte, step int) {
	a.free = append(a.free, h[step])
	delete(h, step)
}

// buffer returns an empty buffer with room for n bytes: a recycled one
// when one is big enough.
func (a *Account) buffer(n int) []byte {
	for i, b := range a.free {
		if cap(b) >= n {
			last := len(a.free) - 1
			a.free[i], a.free[last] = a.free[last], nil
			a.free = a.free[:last]
			return b[:0]
		}
	}
	return make([]byte, 0, n)
}

// State is device dev's restart state at step, a step Rewind returned,
// decoded into fresh tensors.
func (a *Account) State(dev, step int) wire.DeviceState {
	values, velocity := decodeState(a.snaps[a.at[dev].gi][step])
	return wire.DeviceState{Dev: dev, Step: step, Values: values, Velocity: velocity}
}

// decodeState decodes a state Apply checked, so it cannot fail.
func decodeState(enc []byte) (values, velocity []*tensor.Tensor) {
	r := wire.NewReader(enc)
	values, velocity = r.State()
	if err := r.Close(); err != nil {
		panic(fmt.Sprintf("ledger: a checked snapshot does not decode: %v", err))
	}
	return values, velocity
}

// Apply changes the account by one record. A log may hold a step twice (a
// restarted coordinator re-records the steps it replays, bit-identically),
// so a repeat replaces what it repeats.
func (a *Account) Apply(rec *Record) error {
	if rec.Type != TypeCheckpoint {
		if err := a.CheckStep(rec.Step); err != nil {
			return err
		}
	}
	switch rec.Type {
	case TypeDevSnapshot:
		p, err := a.device(rec.Dev)
		if err != nil {
			return err
		}
		if err := a.checkState(rec.Dev, p, rec.State); err != nil {
			return err
		}
		h := a.snaps[p.gi]
		if _, ok := h[rec.Step]; ok {
			a.drop(h, rec.Step)
		}
		h[rec.Step] = append(a.buffer(len(rec.State)), rec.State...)
		cut := a.Cut()
		for _, h := range a.snaps {
			for s := range h {
				if s < cut {
					a.drop(h, s)
				}
			}
		}
	case TypeLosses:
		p, err := a.device(rec.Dev)
		if err != nil {
			return err
		}
		nbg := len(a.plan.Groups[p.gi].Blocks)
		if len(rec.Losses) != nbg {
			return fmt.Errorf("device %d (group %d rank %d) reported %d losses, want %d", rec.Dev, p.gi, p.j, len(rec.Losses), nbg)
		}
		for bi, v := range rec.Losses {
			a.losses[p.gi][p.j*nbg+bi][rec.Step] = v
		}
		a.loss[rec.Dev] = max(a.loss[rec.Dev], rec.Step)
	case TypeBarrier:
		a.release = max(a.release, rec.Step)
	case TypeCheckpoint:
		// A compacted log: the children keep their original order, so
		// applying them applies the sub-history Compact kept.
		for i, child := range rec.Children {
			if err := a.Apply(child); err != nil {
				return fmt.Errorf("child %d (%v): %w", i, child.Type, err)
			}
		}
	case TypeRepartition:
		return a.repartition(rec)
	default:
		return fmt.Errorf("unsupported record")
	}
	return nil
}

func (a *Account) device(dev int) (place, error) {
	if dev < 0 || dev >= len(a.at) {
		return place{}, fmt.Errorf("unknown device %d", dev)
	}
	return a.at[dev], nil
}

// checkState checks an encoded snapshot against the plan by its tensor
// headers (wire.Reader.StateBytes), decoding no float: only rank 0 of a
// group snapshots, and it holds one value and one velocity slab per block
// the group trains, each a vector of the block's length.
func (a *Account) checkState(dev int, p place, state []byte) error {
	if p.j != 0 {
		return fmt.Errorf("snapshot from device %d, rank %d of group %d (only rank 0 snapshots)", dev, p.j, p.gi)
	}
	blocks := a.plan.Groups[p.gi].Blocks
	n, bad, badRank, badLen := 0, -1, 0, 0
	r := wire.NewReader(state)
	r.StateBytes(func(i, rank, numel int) {
		n++
		if bad < 0 && i < len(blocks) && (rank != 1 || numel != a.slabs[blocks[i]]) {
			bad, badRank, badLen = i, rank, numel
		}
	})
	if err := r.Close(); err != nil {
		return fmt.Errorf("device %d snapshot: %w", dev, err)
	}
	if n != len(blocks) {
		return fmt.Errorf("device %d snapshot has %d slabs, group %d trains %d blocks", dev, n, p.gi, len(blocks))
	}
	if bad >= 0 {
		return fmt.Errorf("device %d snapshot slab %d is of rank %d with %d values, block %d's is a vector of %d",
			dev, bad, badRank, badLen, blocks[bad], a.slabs[blocks[bad]])
	}
	return nil
}

// repartition performs a repartition record: the run continues on the
// record's plan from the newest step at or below the recorded one that
// every group covers (a torn log may have lost snapshots the live cut
// held; replaying a few more steps is bit-identical). The new plan must
// have the same devices and blocks, every block on as many members, so a
// group's state is its blocks' slabs and its loss rows (member j's row of
// its bi-th block at j*len(Blocks)+bi) are exactly its blocks' rows: the
// remap decodes the cut's states, moves slabs and rows between groups,
// indexed by block, and encodes each new group's state.
func (a *Account) repartition(rec *Record) error {
	next, err := wire.DecodePlan(rec.Payload)
	if err != nil {
		return err
	}
	if err := next.Validate(len(a.at), len(a.slabs)); err != nil {
		return err
	}
	cut := a.covered(rec.Step)
	nb := len(a.slabs)
	values := make([]*tensor.Tensor, nb)
	velocity := make([]*tensor.Tensor, nb)
	rows := make([][][]float64, nb) // block → one row per member
	for gi, g := range a.plan.Groups {
		var vals, vels []*tensor.Tensor
		if cut >= 0 {
			vals, vels = decodeState(a.snaps[gi][cut])
		}
		for bi, b := range g.Blocks {
			if cut >= 0 {
				values[b], velocity[b] = vals[bi], vels[bi]
			}
			for j := range g.Devices {
				rows[b] = append(rows[b], a.losses[gi][j*len(g.Blocks)+bi])
			}
		}
	}
	for _, g := range next.Groups {
		for _, b := range g.Blocks {
			if len(g.Devices) != len(rows[b]) {
				return fmt.Errorf("plan %q trains block %d on %d members, the run on %d", next.Name, b, len(g.Devices), len(rows[b]))
			}
		}
	}
	a.setPlan(next, cut)
	for gi, g := range next.Groups {
		var vals, vels []*tensor.Tensor
		for bi, b := range g.Blocks {
			vals = append(vals, values[b])
			vels = append(vels, velocity[b])
			for j, row := range rows[b] {
				a.losses[gi][j*len(g.Blocks)+bi] = row
			}
		}
		if cut >= 0 {
			w := wire.NewWriter()
			w.State(vals, vels)
			a.snaps[gi][cut] = w.Bytes()
		}
	}
	return nil
}
