package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/tensor"
)

// throughBytes writes f as a connection would and reads it back.
func throughBytes(t *testing.T, f *wire.Frame) *wire.Frame {
	t.Helper()
	var hdr [wire.HeaderLen]byte
	if err := f.PutHeader(&hdr); err != nil {
		t.Fatal(err)
	}
	got, err := wire.ReadFrame(bytes.NewReader(append(hdr[:], f.Payload...)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// decodeState decodes a payload that holds one device state and nothing
// else.
func decodeState(t *testing.T, payload []byte) (values, velocity []*tensor.Tensor) {
	t.Helper()
	r := wire.NewReader(payload)
	values, velocity = r.State()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return values, velocity
}

// hostDevice builds the replica a worker would host for a's only device.
func hostDevice(t *testing.T, a *wire.Assign) *hostedDevice {
	t.Helper()
	devices, err := (&Worker{}).buildDevices(a, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return devices[0]
}

// restartAssign is the Assign hosting hybridPlan's device 2 — rank 0 of
// group 1, blocks 2 and 3 — at the seed.
func restartAssign() *wire.Assign {
	s := runSpec{plan: hybridPlan(), steps: 2, batch: 8}
	return &wire.Assign{Plan: s.plan, Spec: s.modelSpec(), Snapshot: CaptureSnapshot(s.workbench()),
		Run: wire.RunConfig{DPU: true, LR: 0.05, Momentum: 0.9, Steps: s.steps, Data: s.data()}, Devices: []int{2}}
}

// TestRestartStateCrossesEveryCarrier: a device's restart state is its
// blocks' slabs end to end. Device 2's slabs, set to values no step makes,
// cross a snapshot frame, the run's account, a ledger append and replay,
// an Assign and a worker's install into a fresh replica, and land there
// bit for bit; every carrier holds 2·B tensors for the group's B blocks.
func TestRestartStateCrossesEveryCarrier(t *testing.T) {
	const dev, step = 2, 0
	assign := restartAssign()
	src := hostDevice(t, assign)
	values, velocity := src.slabs()
	rng := rand.New(rand.NewSource(53))
	for _, slab := range append(values[:len(values):len(values)], velocity...) {
		for i := range slab.Data() {
			slab.Data()[i] = rng.Float32()*2 - 1
		}
	}
	nb := len(assign.Plan.Groups[assign.Plan.GroupOf(dev)].Blocks)
	carries := func(carrier string, vals, vels []*tensor.Tensor) {
		t.Helper()
		if len(vals) != nb || len(vels) != nb {
			t.Fatalf("%s holds %d value and %d velocity tensors, want one each per block, %d in all", carrier, len(vals), len(vels), 2*nb)
		}
	}

	frame := throughBytes(t, deviceSnapshotter(src)(step))
	vals, vels := decodeState(t, frame.Payload)
	carries("the snapshot frame", vals, vels)
	rec := &ledger.Record{Type: ledger.TypeDevSnapshot, Dev: dev, Step: step, State: frame.Payload}
	live, err := ledger.NewAccount(assign)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Apply(rec); err != nil {
		t.Fatalf("live account: %v", err)
	}
	st := live.State(dev, step)
	carries("the live account's state", st.Values, st.Velocity)

	dir := filepath.Join(t.TempDir(), "run")
	led, err := ledger.Create(dir, &ledger.Manifest{Assign: *assign})
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Append(rec); err != nil {
		t.Fatal(err)
	}
	led.Close()
	led, man, rep, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	led.Close()
	replayed, err := ledger.NewAccount(&man.Assign)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Records {
		vals, vels := decodeState(t, r.State)
		carries("the replayed record", vals, vels)
		if err := replayed.Apply(r); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}

	restart := man.Assign
	restart.States = []wire.DeviceState{replayed.State(dev, step)}
	got, err := wire.DecodeAssign(throughBytes(t, wire.EncodeAssign(&restart)))
	if err != nil {
		t.Fatal(err)
	}
	carries("the Assign's restart state", got.States[0].Values, got.States[0].Velocity)
	dst := hostDevice(t, got)
	if err := installDeviceState(dst, got.States[0]); err != nil {
		t.Fatalf("install: %v", err)
	}
	gotVals, gotVels := dst.slabs()
	sent := append(values[:len(values):len(values)], velocity...)
	for i, slab := range append(gotVals, gotVels...) {
		want := sent[i].Data()
		for j, v := range slab.Data() {
			if math.Float32bits(v) != math.Float32bits(want[j]) {
				t.Fatalf("installed slab %d element %d is %v, the snapshot's %v", i, j, v, want[j])
			}
		}
	}
}

// TestShortSlabRefusedOnInstall: a worker refuses a restart state whose
// slab is one element short of its block's, or that is one slab short,
// and InstallSnapshot refuses a seed whose student slab is one element
// short. The account and a ledger replay refuse such a snapshot too
// (ledger.TestAccountRefusesShortSlab).
func TestShortSlabRefusedOnInstall(t *testing.T) {
	assign := restartAssign()
	d := hostDevice(t, assign)
	values, velocity := d.slabs()
	short := func(slabs []*tensor.Tensor) []*tensor.Tensor {
		out := append([]*tensor.Tensor(nil), slabs...)
		out[1] = tensor.New(slabs[1].Numel() - 1)
		return out
	}
	for name, st := range map[string]wire.DeviceState{
		"slab one element short": {Dev: 2, Values: short(values), Velocity: short(velocity)},
		"one slab short":         {Dev: 2, Values: values[:1], Velocity: velocity[:1]},
	} {
		if err := installDeviceState(d, st); err == nil {
			t.Errorf("%s: the worker installed it", name)
		}
	}
	snap := assign.Snapshot
	snap.Student = short(snap.Student)
	if err := InstallSnapshot(runSpec{}.workbench(), snap); err == nil {
		t.Error("InstallSnapshot installed a student slab one element short")
	}
}
