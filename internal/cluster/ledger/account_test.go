package ledger

import (
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/tensor"
)

// mustAccount builds m's account and applies recs to it.
func mustAccount(t *testing.T, m *Manifest, recs ...*Record) *Account {
	t.Helper()
	acct, err := NewAccount(&m.Assign)
	if err != nil {
		t.Fatalf("NewAccount: %v", err)
	}
	for i, rec := range recs {
		if err := acct.Apply(rec); err != nil {
			t.Fatalf("record %d (%v): %v", i, rec.Type, err)
		}
	}
	return acct
}

// sameSlabs reports whether two slab lists are equal, slab for slab and
// bit for bit.
func sameSlabs(got, want []*tensor.Tensor) bool {
	return slices.EqualFunc(got, want, func(g, w *tensor.Tensor) bool { return sameBits(g, w) })
}

// sameBits reports whether two tensors have one shape and the same bits.
func sameBits(a, b *tensor.Tensor) bool {
	return a.SameShape(b) && slices.EqualFunc(a.Data(), b.Data(), func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

// TestAccountRewindKeepsOnlyTheCut: a worker-loss restart rewinds to the
// cut — the newest step every group snapshotted and every device
// accounted — and keeps that step's snapshots alone, with every mark
// moved back to it.
func TestAccountRewindKeepsOnlyTheCut(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, lop := unsplitManifest(), lopsidedPlan()
	var recs []*Record
	for step := 0; step < 3; step++ {
		recs = append(recs, snap(rng, lop, 0, step), snap(rng, lop, 1, step), snap(rng, lop, 2, step))
	}
	// Device 1's loss rows stop at step 1, so step 2 is not accounted.
	recs = append(recs,
		Losses(0, 2, []float64{1, 2}), Losses(1, 1, []float64{3}), Losses(2, 2, []float64{4}))
	acct := mustAccount(t, m, recs...)
	if cut := acct.Rewind(); cut != 1 {
		t.Fatalf("rewind to step %d, want 1", cut)
	}
	for gi, h := range acct.snaps {
		if _, ok := h[1]; len(h) != 1 || !ok {
			t.Fatalf("group %d holds snapshots of %d steps after the rewind, want only step 1", gi, len(h))
		}
	}
	for dev := 0; dev < 3; dev++ {
		st := acct.State(dev, 1)
		values, velocity := decodeState(recs[3+dev].State)
		if !sameSlabs(st.Values, values) || !sameSlabs(st.Velocity, velocity) {
			t.Fatalf("device %d restarts from slabs other than its step-1 snapshot's", dev)
		}
		if loss, snapped := acct.Marks(dev); loss != 1 || snapped != 1 {
			t.Fatalf("device %d marks (%d, %d) after the rewind, want (1, 1)", dev, loss, snapped)
		}
	}
	if got := acct.Losses()[0][1][2]; got != 2 {
		t.Fatalf("a loss row past the cut was lost: %v", got)
	}
}

// TestAccountRepartitionAtTornCut: a repartition record whose step is
// past the newest step every group covers (a torn log lost snapshots the
// live cut held) remaps from the covered step, moving each block's
// slabs and loss rows to the group that trains it under the new plan,
// the rows without copying them.
func TestAccountRepartitionAtTornCut(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m, lop := unsplitManifest(), lopsidedPlan()
	recs := []*Record{
		snap(rng, lop, 0, 0), snap(rng, lop, 1, 0), snap(rng, lop, 2, 0),
		snap(rng, lop, 0, 1), snap(rng, lop, 1, 1), snap(rng, lop, 2, 1),
		snap(rng, lop, 0, 2),
		Losses(0, 1, []float64{0.5, 0.4}), Losses(1, 1, []float64{0.3}), Losses(2, 1, []float64{0.2}),
	}
	acct := mustAccount(t, m, recs...)
	old := acct.Losses()
	block1, block2 := old[0][1], old[1][0]
	if err := acct.Apply(Repartition(2, wire.EncodePlan(rebalancedPlan()))); err != nil {
		t.Fatalf("repartition: %v", err)
	}
	if cut := acct.Cut(); cut != 1 {
		t.Fatalf("repartitioned at step %d, want the covered step 1", cut)
	}
	if acct.Plan().Name != "rebalanced" {
		t.Fatalf("plan %q after the repartition", acct.Plan().Name)
	}
	// Lopsided groups {B0,B1}, {B2}, {B3} become {B0}, {B1,B2}, {B3}:
	// device 1's step-1 state is block 1's slabs from group 0's snapshot
	// and block 2's from group 1's.
	var g [3][2][]*tensor.Tensor
	for i := range g {
		g[i][0], g[i][1] = decodeState(recs[3+i].State)
	}
	for dev, want := range [][2][]*tensor.Tensor{
		{g[0][0][:1], g[0][1][:1]},
		{{g[0][0][1], g[1][0][0]}, {g[0][1][1], g[1][1][0]}},
		g[2],
	} {
		if st := acct.State(dev, 1); !sameSlabs(st.Values, want[0]) || !sameSlabs(st.Velocity, want[1]) {
			t.Fatalf("device %d's remapped state is not the step-1 slabs of its blocks", dev)
		}
	}
	rows := acct.Losses()[1]
	if len(rows) != 2 || &rows[0][0] != &block1[0] || &rows[1][0] != &block2[0] {
		t.Fatal("blocks 1 and 2's loss rows did not move to device 1's group")
	}
}

// TestAccountCutIsCompactHorizon: the horizon Compact keeps snapshots
// from is the account's cut — here bounded by a device's loss rows and,
// without DPU, by the barrier release — and everything at or past it
// survives.
func TestAccountCutIsCompactHorizon(t *testing.T) {
	m := sampleManifest()
	m.Assign.Run.DPU = false
	rng := rand.New(rand.NewSource(41))
	// sampleManifest: group 0 (devices 0, 1) trains blocks 0 and 1, group
	// 1 (device 2) blocks 2 and 3.
	s0 := func(step int) *Record { return snap(rng, m.Assign.Plan, 0, step) }
	s2 := func(step int) *Record { return snap(rng, m.Assign.Plan, 1, step) }
	var recs []*Record
	for step := 0; step < 4; step++ {
		recs = append(recs, Losses(0, step, []float64{1, 2}), Losses(2, step, []float64{3, 4}))
		if step < 3 {
			recs = append(recs, Losses(1, step, []float64{5, 6}))
		}
		if step < 2 {
			recs = append(recs, Barrier(step))
		}
		recs = append(recs, s0(step), s2(step))
	}
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, m)
	for _, rec := range recs {
		if err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	led.Close()
	cut := mustAccount(t, m, recs...).Cut()
	if cut != 1 {
		t.Fatalf("cut %d, want the released step 1", cut)
	}
	if err := Compact(dir); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	led2, _, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	led2.Close()
	horizon, snaps := 1<<30, 0
	for _, c := range rep.Records[0].Children {
		if c.Type == TypeDevSnapshot {
			horizon, snaps = min(horizon, c.Step), snaps+1
		}
	}
	if horizon != cut || snaps != 6 {
		t.Fatalf("Compact kept %d snapshots from step %d, want 6 from the cut %d", snaps, horizon, cut)
	}
}

// TestAccountRefusesStepsOutsideTheRun: every record's step lies in
// [0, steps); Compact, which checks what a resume checks, refuses one
// outside and names it.
func TestAccountRefusesStepsOutsideTheRun(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	steps := sampleManifest().Assign.Run.Steps
	for _, rec := range []*Record{
		snap(rng, sampleManifest().Assign.Plan, 0, 99),
		Barrier(-7),
		Losses(2, steps, []float64{1, 2}),
		Repartition(steps, wire.EncodePlan(sampleManifest().Assign.Plan)),
	} {
		dir := filepath.Join(t.TempDir(), "run")
		led := mustCreate(t, dir, sampleManifest())
		if err := led.Append(Barrier(0)); err != nil {
			t.Fatal(err)
		}
		if err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
		led.Close()
		err := Compact(dir)
		if want := "record 1 (" + rec.Type.String() + ")"; err == nil || !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), "outside the run's") {
			t.Fatalf("%v record at step %d: Compact returned %v, want a range error naming %q", rec.Type, rec.Step, err, want)
		}
	}
}

// TestAccountRefusesShortSlab: a snapshot whose slab is one element short
// of its block's seed slab, or that holds one slab too few, is refused by
// the live account and by a replay of a log that holds it (Compact
// replays a log as a resume does).
func TestAccountRefusesShortSlab(t *testing.T) {
	m := sampleManifest()
	values, velocity := decodeState(snap(rand.New(rand.NewSource(47)), m.Assign.Plan, 1, 0).State)
	for name, rec := range map[string]*Record{
		"slab one element short": DevSnapshot(2, 0,
			[]*tensor.Tensor{values[0], tensor.New(slabLens[3] - 1)},
			[]*tensor.Tensor{velocity[0], tensor.New(slabLens[3] - 1)}),
		"one slab short": DevSnapshot(2, 0, values[:1], velocity[:1]),
		"a slab of rank 2": DevSnapshot(2, 0, []*tensor.Tensor{values[0], tensor.New(1, slabLens[3])},
			[]*tensor.Tensor{velocity[0], tensor.New(1, slabLens[3])}),
	} {
		acct, err := NewAccount(&m.Assign)
		if err != nil {
			t.Fatal(err)
		}
		if err := acct.Apply(rec); err == nil {
			t.Errorf("%s: the live account applied it", name)
		}
		dir := filepath.Join(t.TempDir(), "run")
		led := mustCreate(t, dir, m)
		if err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
		led.Close()
		if err := Compact(dir); err == nil || !strings.Contains(err.Error(), "record 0 (dev-snapshot)") {
			t.Errorf("%s: replaying a log that holds it returned %v, want a refusal of record 0", name, err)
		}
	}
}
