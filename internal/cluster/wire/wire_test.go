package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// WriteFrame encodes f to w: 16-byte header followed by the payload. The
// codec's tests and fuzz seeds write frames with it; the TCP transport
// writes header and payload in one vectored write of its own.
func WriteFrame(w io.Writer, f *Frame) error {
	var hdr [HeaderLen]byte
	if err := f.PutHeader(&hdr); err != nil {
		return err
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

func roundTripFrame(t *testing.T, f *Frame) *Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("ReadFrame left %d bytes unconsumed", buf.Len())
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{Kind: KindLosses, Dev: 3, Step: 41, Payload: []byte{1, 2, 3}}
	got := roundTripFrame(t, f)
	if got.Kind != f.Kind || got.Dev != f.Dev || got.Step != f.Step || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, f)
	}
}

func TestFrameNoDevNoStep(t *testing.T) {
	got := roundTripFrame(t, Control(KindHello, NoDev, NoStep))
	if got.Dev != NoDev || got.Step != NoStep {
		t.Fatalf("sentinel dev/step did not survive: %+v", got)
	}
}

// TestTensorRoundTripExact is the codec's core property: every float32
// bit pattern — including negative zero, infinities, NaN, and denormals —
// survives a round trip bit-for-bit.
func TestTensorRoundTripExact(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, math.MaxFloat32, 1e-42,
	}
	src := tensor.New(2, 5)
	copy(src.Data(), specials)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var ts *tensor.Tensor
		if trial == 0 {
			ts = src
		} else {
			rank := 1 + rng.Intn(4)
			shape := make([]int, rank)
			for i := range shape {
				shape[i] = 1 + rng.Intn(5)
			}
			ts = tensor.Rand(rng, -10, 10, shape...)
		}
		f := EncodeTensor(KindOutput, 0, int32(trial), ts)
		got, err := DecodeTensor(roundTripFrame(t, f))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !got.SameShape(ts) {
			t.Fatalf("trial %d: shape %v vs %v", trial, got.Shape(), ts.Shape())
		}
		for i, v := range ts.Data() {
			if math.Float32bits(v) != math.Float32bits(got.Data()[i]) {
				t.Fatalf("trial %d: element %d not bit-identical: %v vs %v", trial, i, v, got.Data()[i])
			}
		}
	}
}

func TestTensorsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ts := []*tensor.Tensor{
		tensor.Rand(rng, -1, 1, 3),
		tensor.Rand(rng, -1, 1, 2, 3, 4),
		tensor.Rand(rng, -1, 1, 1, 1, 1, 1),
	}
	got, err := DecodeTensors(roundTripFrame(t, EncodeTensors(KindFinalParams, 1, 2, ts)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(ts) {
		t.Fatalf("got %d tensors, want %d", len(got), len(ts))
	}
	for i := range ts {
		if !got[i].Equal(ts[i]) {
			t.Fatalf("tensor %d differs", i)
		}
	}
	// An empty list round-trips too.
	got, err = DecodeTensors(roundTripFrame(t, EncodeTensors(KindFinalParams, 1, 2, nil)))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty tensor list: got %v, %v", got, err)
	}
}

func TestLossesRoundTrip(t *testing.T) {
	vals := []float64{0.25, -3.5, math.Pi, 0}
	got, err := DecodeLosses(roundTripFrame(t, EncodeLosses(2, 9, vals)), nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("loss %d: %v vs %v", i, got[i], vals[i])
		}
	}
}

func sampleAssign() *Assign {
	rng := rand.New(rand.NewSource(4))
	return &Assign{
		Plan: sched.Plan{Name: "hybrid", Groups: []sched.Group{
			{Devices: []int{0, 1}, Blocks: []int{0, 1}},
			{Devices: []int{2}, Blocks: []int{2, 3}, Shares: nil},
		}},
		Spec: ModelSpec{Name: "transformer", Seed: 42, Blocks: 4, Channels: 6, Height: 8, Width: 8,
			Heads: 2, FFTeacher: 32, FFStudent: 8, SeqLen: 6, Vocab: 16, Classes: 4, Temp: 2.5},
		Run: RunConfig{DPU: true, LR: 0.05, Momentum: 0.9, Steps: 6, Backend: "serial",
			Snap: SnapshotPolicy{Interval: 3}, HeartbeatMillis: 250, RetryBudgetMillis: 5000,
			Topology: "ring", Trace: true,
			Data: DataSpec{Seed: 11, N: 72, C: 3, H: 8, W: 8, Classes: 4, Batch: 12,
				Kind: "tokens", L: 6, Vocab: 16}},
		Devices: []int{0, 1},
		Peers:   []string{"w0:1", "w0:1", "w1:2"},
		Epoch:   77,
		Snapshot: Snapshot{
			Teacher: [][]*tensor.Tensor{{tensor.Rand(rng, -1, 1, 2, 2)}, {}},
			Student: []*tensor.Tensor{tensor.Rand(rng, -1, 1, 7), tensor.Rand(rng, -1, 1, 2)},
		},
	}
}

func TestAssignRoundTrip(t *testing.T) {
	a := sampleAssign()
	got, err := DecodeAssign(roundTripFrame(t, EncodeAssign(a)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Plan.Name != a.Plan.Name || len(got.Plan.Groups) != len(a.Plan.Groups) {
		t.Fatalf("plan mismatch: %+v", got.Plan)
	}
	for gi, g := range a.Plan.Groups {
		gg := got.Plan.Groups[gi]
		if len(gg.Devices) != len(g.Devices) || len(gg.Blocks) != len(g.Blocks) {
			t.Fatalf("group %d mismatch: %+v vs %+v", gi, gg, g)
		}
	}
	if got.Spec != a.Spec {
		t.Fatalf("spec mismatch: %+v vs %+v", got.Spec, a.Spec)
	}
	if got.Run != a.Run {
		t.Fatalf("run config mismatch: %+v vs %+v", got.Run, a.Run)
	}
	if len(got.Devices) != 2 || got.Devices[0] != 0 || got.Devices[1] != 1 {
		t.Fatalf("devices mismatch: %v", got.Devices)
	}
	if len(got.Peers) != 3 || got.Peers[0] != "w0:1" || got.Peers[2] != "w1:2" {
		t.Fatalf("peer directory mismatch: %v", got.Peers)
	}
	if got.Epoch != 77 {
		t.Fatalf("epoch mismatch: %d", got.Epoch)
	}
	if len(got.Snapshot.Student) != len(a.Snapshot.Student) {
		t.Fatalf("student snapshot has %d slabs, want %d", len(got.Snapshot.Student), len(a.Snapshot.Student))
	}
	for b, slab := range a.Snapshot.Student {
		if !got.Snapshot.Student[b].Equal(slab) {
			t.Fatalf("student snapshot block %d slab differs", b)
		}
	}
	if !got.Snapshot.Teacher[0][0].Equal(a.Snapshot.Teacher[0][0]) {
		t.Fatal("teacher snapshot differs")
	}
	if len(got.States) != 0 {
		t.Fatalf("an assign at the seed decoded %d restart states", len(got.States))
	}
}

// TestDataSpecRejectsMalformedRecipes: a recipe arrives in an Assign or a
// ledger manifest, so one no generator can evaluate — a non-positive
// count, an unknown kind, a tensor past MaxPayload or past int's range —
// must come back from Batches as an error, never a panic that
// takes the worker process down with it.
func TestDataSpecRejectsMalformedRecipes(t *testing.T) {
	img := DataSpec{Seed: 7, N: 16, C: 3, H: 8, W: 8, Classes: 4, Batch: 8}
	tok := DataSpec{Seed: 7, N: 16, Classes: 4, Batch: 8, Kind: "tokens", L: 6, Vocab: 16}
	for _, good := range []DataSpec{img, tok} {
		batches, err := good.Batches()
		if err != nil || len(batches) != 2 {
			t.Fatalf("%+v: %d batches, %v; want 2", good, len(batches), err)
		}
	}
	edit := func(ds DataSpec, f func(*DataSpec)) DataSpec { f(&ds); return ds }
	cases := map[string]DataSpec{
		"zero N":                 edit(img, func(d *DataSpec) { d.N = 0 }),
		"negative N":             edit(tok, func(d *DataSpec) { d.N = -4 }),
		"zero batch":             edit(img, func(d *DataSpec) { d.Batch = 0 }),
		"negative batch":         edit(tok, func(d *DataSpec) { d.Batch = -8 }),
		"zero classes":           edit(img, func(d *DataSpec) { d.Classes = 0 }),
		"zero token classes":     edit(tok, func(d *DataSpec) { d.Classes = 0 }),
		"negative C":             edit(img, func(d *DataSpec) { d.C = -1 }),
		"zero H":                 edit(img, func(d *DataSpec) { d.H = 0 }),
		"zero W":                 edit(img, func(d *DataSpec) { d.W = 0 }),
		"zero L":                 edit(tok, func(d *DataSpec) { d.L = 0 }),
		"zero vocabulary":        edit(tok, func(d *DataSpec) { d.Vocab = 0 }),
		"negative vocabulary":    edit(tok, func(d *DataSpec) { d.Vocab = -3 }),
		"unknown kind":           edit(img, func(d *DataSpec) { d.Kind = "audio" }),
		"past MaxPayload":        edit(img, func(d *DataSpec) { d.N, d.C, d.H, d.W = 1<<20, 1<<4, 1<<4, 2 }),
		"tokens past MaxPayload": edit(tok, func(d *DataSpec) { d.N, d.L = 1<<20, 1<<9 }),
		"overflowing count":      edit(img, func(d *DataSpec) { d.N, d.C, d.H, d.W = 1<<30, 1<<30, 1<<30, 1<<30 }),
	}
	for name, ds := range cases {
		t.Run(name, func(t *testing.T) {
			if err := ds.Validate(); err == nil {
				t.Fatalf("%+v validated", ds)
			}
			if _, err := ds.Batches(); err == nil {
				t.Fatalf("%+v evaluated", ds)
			}
		})
	}
}

// decodeState reads a payload that holds one device state and nothing
// else.
func decodeState(payload []byte) (values, velocity []*tensor.Tensor, err error) {
	r := NewReader(payload)
	values, velocity = r.State()
	return values, velocity, r.Close()
}

func TestDeviceSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	params := []*tensor.Tensor{tensor.Rand(rng, -1, 1, 6), tensor.Rand(rng, -1, 1, 4)}
	vels := []*tensor.Tensor{tensor.Rand(rng, -1, 1, 6), tensor.New(4)}
	f := roundTripFrame(t, EncodeDeviceSnapshot(2, 7, params, vels))
	if f.Dev != 2 || f.Step != 7 {
		t.Fatalf("snapshot header: %+v", f)
	}
	gp, gv, err := decodeState(f.Payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(gp) != len(params) || len(gv) != len(vels) {
		t.Fatalf("decoded %d value and %d velocity slabs, want %d and %d", len(gp), len(gv), len(params), len(vels))
	}
	for i := range params {
		if !gp[i].Equal(params[i]) || !gv[i].Equal(vels[i]) {
			t.Fatalf("snapshot slab %d differs", i)
		}
	}
}

// TestDeviceSnapshotCountMismatchRejected: Reader.State is the one check that a
// state's velocity slabs pair with its value slabs, and every carrier of
// a state reads through it: a snapshot frame and an Assign's restart
// state both refuse a state one velocity slab short or one element off.
func TestDeviceSnapshotCountMismatchRejected(t *testing.T) {
	for name, vels := range map[string][]*tensor.Tensor{
		"one velocity slab short":   {tensor.New(3)},
		"velocity one element long": {tensor.New(3), tensor.New(3)},
		"velocity of another rank":  {tensor.New(3), tensor.New(1, 2)},
	} {
		values := []*tensor.Tensor{tensor.Ones(3), tensor.Ones(2)}
		f := EncodeDeviceSnapshot(0, 0, values, vels)
		if _, _, err := decodeState(f.Payload); err == nil {
			t.Errorf("%s: snapshot frame accepted", name)
		}
		if r := NewReader(f.Payload); r.StateBytes(nil) != nil || r.Close() == nil {
			t.Errorf("%s: the header walk accepted the snapshot frame", name)
		}
		a := sampleAssign()
		a.States = []DeviceState{{Dev: 0, Values: values, Velocity: vels}, {Dev: 1, Values: values[:1], Velocity: values[:1]}}
		if _, err := DecodeAssign(EncodeAssign(a)); err == nil {
			t.Errorf("%s: assign restart state accepted", name)
		}
	}
}

// sampleResume is the session-open frame of a restart: sampleAssign plus
// one restart state per hosted device.
func sampleResume() *Assign {
	rng := rand.New(rand.NewSource(6))
	res := sampleAssign()
	for _, d := range res.Devices {
		res.States = append(res.States, DeviceState{
			Dev: d, Step: 3,
			Values:   []*tensor.Tensor{tensor.Rand(rng, -1, 1, 3), tensor.Rand(rng, -1, 1, 4)},
			Velocity: []*tensor.Tensor{tensor.Rand(rng, -1, 1, 3), tensor.New(4)},
		})
	}
	return res
}

func TestResumeRoundTrip(t *testing.T) {
	res := sampleResume()
	got, err := DecodeAssign(roundTripFrame(t, EncodeAssign(res)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Plan.Name != res.Plan.Name || got.Spec != res.Spec || got.Run != res.Run {
		t.Fatalf("assign body mismatch: %+v", got)
	}
	if len(got.States) != len(res.States) {
		t.Fatalf("got %d states, want %d", len(got.States), len(res.States))
	}
	for i, st := range res.States {
		g := got.States[i]
		if g.Dev != st.Dev || g.Step != st.Step {
			t.Fatalf("state %d header: %+v vs %+v", i, g, st)
		}
		if len(g.Values) != len(st.Values) || len(g.Velocity) != len(st.Velocity) {
			t.Fatalf("state %d has %d/%d slabs, want %d/%d", i, len(g.Values), len(g.Velocity), len(st.Values), len(st.Velocity))
		}
		for b := range st.Values {
			if !g.Values[b].Equal(st.Values[b]) || !g.Velocity[b].Equal(st.Velocity[b]) {
				t.Fatalf("state %d slab %d differs", i, b)
			}
		}
	}
}

// TestResumeStateDeviceMismatchRejected: when an Assign carries restart
// states at all, the decoder enforces the one-state-per-assigned-device
// invariant so a worker never starts a half-restored session.
func TestResumeStateDeviceMismatchRejected(t *testing.T) {
	res := sampleResume()
	res.States = res.States[:1]
	if _, err := DecodeAssign(roundTripFrame(t, EncodeAssign(res))); err == nil {
		t.Fatal("missing device state accepted")
	}
	res = sampleResume()
	res.States[1].Dev = res.States[0].Dev
	if _, err := DecodeAssign(roundTripFrame(t, EncodeAssign(res))); err == nil {
		t.Fatal("duplicate device state accepted")
	}
	res = sampleResume()
	res.States[1].Dev = 99
	if _, err := DecodeAssign(roundTripFrame(t, EncodeAssign(res))); err == nil {
		t.Fatal("state for unassigned device accepted")
	}
}

func TestResumeTruncatedPayloadRejected(t *testing.T) {
	f := EncodeAssign(sampleResume())
	for n := 0; n < len(f.Payload); n += 7 {
		if _, err := DecodeAssign(&Frame{Kind: KindAssign, Dev: NoDev, Step: NoStep, Payload: f.Payload[:n]}); err == nil {
			t.Fatalf("assign payload truncated to %d bytes decoded successfully", n)
		}
	}
}

// retiredKinds are the kind bytes version 9 (Batch, Resume), version 10
// (SessionResume, RelayAck) and version 12 (Input, Grads, GradsReduced,
// PeerInput) retired; their numbers stay reserved.
var retiredKinds = []Kind{13, 16, 24, 27, 3, 5, 6, 18}

// TestRetiredKindsAreUnknown: a frame stamped with a retired kind byte —
// a Resume from an un-upgraded coordinator that somehow shares our
// version, a corrupted stream — is an unknown-kind error, never a frame a
// session could act on, and the kinds around the gaps keep their numbers.
func TestRetiredKindsAreUnknown(t *testing.T) {
	for _, k := range retiredKinds {
		_, err := ReadFrame(bytes.NewReader(encodeFrameBytes(t, &Frame{Kind: k, Dev: NoDev, Step: NoStep})))
		if err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Fatalf("retired kind %d: got %v, want an unknown-kind error", k, err)
		}
	}
	if KindAssign != 2 || KindOutput != 4 || KindStepDone != 7 || KindDrain != 12 || KindHeartbeat != 14 ||
		KindSnapshot != 15 || KindPeerHello != 17 || KindRingSegment != 19 ||
		KindLinkAck != 23 || KindLinkDown != 25 || KindRelay != 26 || len(kindNames) != 19 {
		t.Fatalf("kinds around the retired gaps moved: assign=%d output=%d step-done=%d drain=%d heartbeat=%d snapshot=%d peer-hello=%d ring-segment=%d link-ack=%d link-down=%d relay=%d (%d kinds)",
			KindAssign, KindOutput, KindStepDone, KindDrain, KindHeartbeat, KindSnapshot, KindPeerHello,
			KindRingSegment, KindLinkAck, KindLinkDown, KindRelay, len(kindNames))
	}
}

// TestVersionSkewOldWorker models an un-upgraded worker talking to this
// coordinator: its hello frame is stamped with an older codec version and
// must be rejected with ErrVersion — a clean, diagnosable handshake
// failure rather than a mis-decoded session setup (the v2→v3 transition
// moved RunConfig's snapshot fields, v10→v11 dropped the Assign's input
// schedule and two retry fields, and v11→v12 reassigned the Output kind
// to peer activations and retired the hub's gather kinds, so a mis-decode
// would silently scramble the session; v12→v13 decodes the same bytes
// but evaluates the data recipe to other data, so a v12 worker would
// silently train on other batches; v13→v14 carries a restart state as one
// slab per block where v13 carried one tensor per parameter, so a v13
// worker would refuse or misplace every state).
func TestVersionSkewOldWorker(t *testing.T) {
	for _, old := range []byte{1, 2, 3, 9, 10, 11, 12, 13} {
		raw := encodeFrameBytes(t, Control(KindHello, NoDev, NoStep))
		raw[1] = old
		_, err := ReadFrame(bytes.NewReader(raw))
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("v%d hello: got %v, want ErrVersion", old, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", old)) || !strings.Contains(err.Error(), fmt.Sprint(Version)) {
			t.Fatalf("version error should name both versions: %v", err)
		}
	}
}

func TestSpansRoundTrip(t *testing.T) {
	b := SpanBatch{Dev: 2, Step: 5, Track: "dev2", Spans: []obs.Span{
		{Name: "teacher_fwd", Cat: 1, Start: 1_000_000, Dur: 500},
		{Name: "peer_ack_wait", Cat: 7, Start: 1_000_600, Dur: 90},
		{Name: "allreduce", Cat: 6, Start: 1_000_700, Dur: 1200},
	}}
	got, err := DecodeSpans(roundTripFrame(t, EncodeSpans(b)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Dev != b.Dev || got.Step != b.Step || got.Track != b.Track || len(got.Spans) != len(b.Spans) {
		t.Fatalf("batch mismatch: %+v vs %+v", got, b)
	}
	for i, s := range b.Spans {
		if got.Spans[i] != s {
			t.Fatalf("span %d mismatch: %+v vs %+v", i, got.Spans[i], s)
		}
	}

	// Empty batches are legal (a step with tracing enabled but no events).
	empty, err := DecodeSpans(roundTripFrame(t, EncodeSpans(SpanBatch{Dev: NoDev, Step: NoStep, Track: "coord"})))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if empty.Step != NoStep || empty.Track != "coord" || len(empty.Spans) != 0 {
		t.Fatalf("empty batch mismatch: %+v", empty)
	}
}

func TestSpansMalformed(t *testing.T) {
	f := EncodeSpans(SpanBatch{Dev: 0, Track: "dev0", Spans: []obs.Span{{Name: "x", Cat: 1, Start: 1, Dur: 1}}})
	// Wrong kind.
	if _, err := DecodeSpans(Control(KindPeerAck, 0, 3)); err == nil {
		t.Fatal("wrong-kind frame decoded")
	}
	// Truncated payload.
	trunc := &Frame{Kind: KindSpans, Dev: f.Dev, Step: f.Step, Payload: f.Payload[:len(f.Payload)-4]}
	if _, err := DecodeSpans(trunc); err == nil {
		t.Fatal("truncated payload decoded")
	}
	// Span count far beyond the payload must fail count validation, not
	// allocate.
	bad := append([]byte(nil), f.Payload...)
	// Payload layout: track string (4-byte len + "dev0"), then the count.
	binary.LittleEndian.PutUint32(bad[8:], 1<<30)
	if _, err := DecodeSpans(&Frame{Kind: KindSpans, Payload: bad}); err == nil {
		t.Fatal("oversized span count decoded")
	}
}

func TestPeerHelloRoundTrip(t *testing.T) {
	h := PeerHello{Epoch: 1234567890123, From: 3, To: 1}
	got, err := DecodePeerHello(roundTripFrame(t, EncodePeerHello(h)))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != h {
		t.Fatalf("peer hello mismatch: %+v vs %+v", got, h)
	}
	if _, err := DecodePeerHello(Control(KindHello, NoDev, NoStep)); err == nil {
		t.Fatal("DecodePeerHello accepted a hello frame")
	}
}

// TestRelayEnvelope: the envelope a peer frame crosses a relayed edge in
// routes by the destination device, keeps the inner step, and unwraps to
// exactly the frame the direct link would have delivered — for the three
// kinds a peer link carries, and no other.
func TestRelayEnvelope(t *testing.T) {
	for _, inner := range []*Frame{
		EncodeTensor(KindOutput, 1, 4, tensor.Rand(rand.New(rand.NewSource(3)), -1, 1, 2, 3)),
		Control(KindPeerAck, 2, 4),
		EncodeRingSegment(1, 4, RingContrib, 1, []float32{1, float32(math.Copysign(0, -1))}),
	} {
		env := roundTripFrame(t, EncodeRelay(5, inner))
		if env.Kind != KindRelay || env.Dev != 5 || env.Step != inner.Step {
			t.Fatalf("envelope header: %+v", env)
		}
		got, err := DecodeRelay(env)
		if err != nil {
			t.Fatalf("unwrap %v: %v", inner.Kind, err)
		}
		if got.Kind != inner.Kind || got.Dev != inner.Dev || got.Step != inner.Step || !bytes.Equal(got.Payload, inner.Payload) {
			t.Fatalf("unwrapped %+v, want %+v", got, inner)
		}
	}
	for _, bad := range []*Frame{
		EncodeRelay(5, Control(KindStepGo, 1, 4)),
		EncodeRelay(5, EncodeRelay(5, Control(KindPeerAck, 1, 4))),
		{Kind: KindRelay, Dev: 5, Step: 4, Payload: []byte{byte(KindPeerAck), 1}},
		Control(KindPeerAck, 1, 4),
	} {
		if got, err := DecodeRelay(bad); err == nil {
			t.Fatalf("DecodeRelay accepted %+v as %+v", bad, got)
		}
	}
}

// TestRingSegmentRoundTrip: ring frames carry raw float32 slices and must
// preserve every bit pattern — they ARE the gradient data in ring mode.
func TestRingSegmentRoundTrip(t *testing.T) {
	data := []float32{0, float32(math.Copysign(0, -1)), -1.5,
		float32(math.Inf(1)), float32(math.NaN()), 1e-42}
	for _, phase := range []uint8{RingContrib, RingGather, RingFull} {
		f := roundTripFrame(t, EncodeRingSegment(2, 9, phase, 5, data))
		if f.Dev != 2 || f.Step != 9 {
			t.Fatalf("ring frame header: %+v", f)
		}
		gp, seg, got, err := DecodeRingSegment(f, nil)
		if err != nil {
			t.Fatalf("phase %d decode: %v", phase, err)
		}
		if gp != phase || seg != 5 || len(got) != len(data) {
			t.Fatalf("phase %d: got phase=%d seg=%d len=%d", phase, gp, seg, len(got))
		}
		for i := range data {
			if math.Float32bits(got[i]) != math.Float32bits(data[i]) {
				t.Fatalf("element %d not bit-identical: %v vs %v", i, got[i], data[i])
			}
		}
	}
	// An empty segment round-trips (zero-length remainder slices are legal).
	if _, _, got, err := DecodeRingSegment(roundTripFrame(t, EncodeRingSegment(0, 0, RingContrib, 0, nil)), nil); err != nil || len(got) != 0 {
		t.Fatalf("empty segment: %v, %v", got, err)
	}
	// Unknown phases are rejected.
	if _, _, _, err := DecodeRingSegment(EncodeRingSegment(0, 0, 9, 0, nil), nil); err == nil {
		t.Fatal("unknown ring phase accepted")
	}
	// Forged counts error out instead of allocating.
	w := NewWriter()
	w.U8(RingContrib)
	w.U32(0)
	w.U32(0xFFFFFFF0)
	if _, _, _, err := DecodeRingSegment(&Frame{Kind: KindRingSegment, Payload: w.Bytes()}, nil); err == nil {
		t.Fatal("forged segment count accepted")
	}
}

// TestSnapshotPolicy pins the policy helpers the worker and coordinator
// both rely on: which steps an interval covers, and which policies are
// rejected.
func TestSnapshotPolicy(t *testing.T) {
	if (SnapshotPolicy{}).Enabled() {
		t.Fatal("zero policy reports enabled")
	}
	p := SnapshotPolicy{Interval: 3}
	var covered []int
	for s := 0; s < 7; s++ {
		if p.Covers(s) {
			covered = append(covered, s)
		}
	}
	if len(covered) != 2 || covered[0] != 2 || covered[1] != 5 {
		t.Fatalf("interval 3 covered %v, want [2 5]", covered)
	}
	if (SnapshotPolicy{Interval: 1}).Covers(0) != true {
		t.Fatal("interval 1 must cover every step")
	}
	if err := (SnapshotPolicy{Interval: -1}).Validate(); err == nil {
		t.Fatal("negative interval validated")
	}
	if err := (SnapshotPolicy{Interval: 4}).Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
}

// TestBlobRoundTrip: the length-prefixed byte-slice primitive added for
// ledger records must round-trip (including empty) and must not alias
// the source payload.
func TestBlobRoundTrip(t *testing.T) {
	w := NewWriter()
	w.Blob([]byte{9, 8, 7})
	w.Blob(nil)
	r := NewReader(w.Bytes())
	got := r.Blob()
	if len(got) != 3 || got[0] != 9 || got[2] != 7 {
		t.Fatalf("blob round trip: %v", got)
	}
	got[0] = 0
	if w.Bytes()[4] == 0 {
		t.Fatal("decoded blob aliases the payload buffer")
	}
	if b := r.Blob(); len(b) != 0 {
		t.Fatalf("empty blob decoded to %v", b)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A truncated blob errors instead of panicking.
	r = NewReader(w.Bytes()[:5])
	r.Blob()
	if r.Err() == nil {
		t.Fatal("truncated blob decoded successfully")
	}
}

// --- edge cases: every malformed input must error, never panic ---------------

func encodeFrameBytes(t *testing.T, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	return buf.Bytes()
}

// TestTruncatedFrames feeds every proper prefix of valid frames to the
// decoder; all must return an error (EOF before the header, unexpected
// EOF inside it) and none may panic.
func TestTruncatedFrames(t *testing.T) {
	frames := [][]byte{
		encodeFrameBytes(t, EncodeAssign(sampleAssign())),
		encodeFrameBytes(t, EncodeTensor(KindOutput, 0, 0, tensor.Ones(2, 3))),
		encodeFrameBytes(t, EncodeLosses(0, 0, []float64{1, 2})),
	}
	for fi, full := range frames {
		for n := 0; n < len(full); n++ {
			f, err := ReadFrame(bytes.NewReader(full[:n]))
			if err == nil {
				t.Fatalf("frame %d truncated to %d bytes: decode succeeded (%+v)", fi, n, f)
			}
			if n == 0 && err != io.EOF {
				t.Fatalf("clean EOF should yield io.EOF, got %v", err)
			}
			if n > 0 && err == io.EOF {
				t.Fatalf("frame %d truncated to %d bytes: got bare io.EOF, want a mid-frame error", fi, n)
			}
		}
	}
}

// TestTruncatedPayloads truncates the payload *content* while keeping the
// header length consistent, exercising the payload readers' bounds
// checks.
func TestTruncatedPayloads(t *testing.T) {
	a := EncodeAssign(sampleAssign())
	for n := 0; n < len(a.Payload); n++ {
		if _, err := DecodeAssign(&Frame{Kind: KindAssign, Dev: NoDev, Step: NoStep, Payload: a.Payload[:n]}); err == nil {
			t.Fatalf("Assign payload truncated to %d bytes decoded successfully", n)
		}
	}
	tf := EncodeTensor(KindOutput, 0, 0, tensor.Ones(3, 3))
	for n := 0; n < len(tf.Payload); n++ {
		if _, err := DecodeTensor(&Frame{Kind: KindOutput, Payload: tf.Payload[:n]}); err == nil {
			t.Fatalf("tensor payload truncated to %d bytes decoded successfully", n)
		}
	}
}

// TestZeroDimTensorRejected: the engine has no zero- or negative-sized
// dimensions; the decoder must reject them with an error (tensor.New
// would panic).
func TestZeroDimTensorRejected(t *testing.T) {
	w := NewWriter()
	w.U32(2) // rank 2
	w.U32(3)
	w.U32(0) // zero dimension
	if _, err := DecodeTensor(&Frame{Kind: KindOutput, Payload: w.Bytes()}); err == nil {
		t.Fatal("zero-dimension tensor decoded successfully")
	}
	// Rank 0 is likewise rejected.
	w = NewWriter()
	w.U32(0)
	if _, err := DecodeTensor(&Frame{Kind: KindOutput, Payload: w.Bytes()}); err == nil {
		t.Fatal("rank-0 tensor decoded successfully")
	}
	// Absurd rank is rejected before any allocation.
	w = NewWriter()
	w.U32(1 << 20)
	if _, err := DecodeTensor(&Frame{Kind: KindOutput, Payload: w.Bytes()}); err == nil {
		t.Fatal("rank 2^20 tensor decoded successfully")
	}
}

// TestOversizedTensorRejected: a shape whose element count overflows the
// payload limit errors out instead of allocating.
func TestOversizedTensorRejected(t *testing.T) {
	w := NewWriter()
	w.U32(4)
	for i := 0; i < 4; i++ {
		w.U32(1 << 16)
	}
	if _, err := DecodeTensor(&Frame{Kind: KindOutput, Payload: w.Bytes()}); err == nil {
		t.Fatal("2^64-element tensor decoded successfully")
	}
}

// TestCrossVersionRejected: frames stamped with a different codec version
// are refused with ErrVersion, regardless of content — a v13 snapshot, a
// list of per-parameter tensors, among them.
func TestCrossVersionRejected(t *testing.T) {
	for _, f := range []*Frame{
		Control(KindHello, NoDev, NoStep),
		EncodeDeviceSnapshot(0, 3, []*tensor.Tensor{tensor.Ones(2, 3), tensor.Ones(3)}, []*tensor.Tensor{tensor.New(2, 3), tensor.New(3)}),
	} {
		raw := encodeFrameBytes(t, f)
		for _, v := range []byte{Version + 1, 13, 0} {
			raw[1] = v
			if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrVersion) {
				t.Fatalf("version-%d %v frame: got %v, want ErrVersion", v, f.Kind, err)
			}
		}
	}
}

func TestBadMagicAndKindRejected(t *testing.T) {
	raw := encodeFrameBytes(t, Control(KindHello, NoDev, NoStep))
	raw[0] = 0x00
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad magic accepted")
	}
	raw = encodeFrameBytes(t, Control(KindHello, NoDev, NoStep))
	raw[2] = 0xEE
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestHugePayloadLengthRejected: a forged header length beyond MaxPayload
// must error before allocating.
func TestHugePayloadLengthRejected(t *testing.T) {
	raw := encodeFrameBytes(t, Control(KindHello, NoDev, NoStep))
	raw[12], raw[13], raw[14], raw[15] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("4 GiB payload length accepted")
	}
}

// TestPayloadBufferGrowsWithArrivingBytes: a header that claims a payload
// of MaxPayload bytes but is followed by a few costs ReadFrame about one
// read chunk, not the claimed gigabyte, and still fails as a truncation;
// a payload spanning several chunks arrives whole.
func TestPayloadBufferGrowsWithArrivingBytes(t *testing.T) {
	raw := encodeFrameBytes(t, Control(KindHello, NoDev, NoStep))
	binary.LittleEndian.PutUint32(raw[12:16], MaxPayload)
	raw = append(raw, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated MaxPayload frame: got %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*readChunk {
		t.Fatalf("a 16-byte header made ReadFrame allocate %d bytes", grew)
	}

	payload := make([]byte, 3*readChunk+5)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got := roundTripFrame(t, &Frame{Kind: KindOutput, Dev: 1, Step: 2, Payload: payload})
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("multi-chunk payload did not round-trip")
	}
}

// TestTrailingBytesRejected: kind-specific decoders must consume their
// payload exactly.
func TestTrailingBytesRejected(t *testing.T) {
	f := EncodeLosses(0, 0, []float64{1})
	f.Payload = append(f.Payload, 0xAB)
	if _, err := DecodeLosses(f, nil); err == nil {
		t.Fatal("trailing payload byte accepted")
	}
}

// TestForgedCountsRejected: collection counts far beyond the remaining
// payload error out instead of allocating huge slices.
func TestForgedCountsRejected(t *testing.T) {
	w := NewWriter()
	w.U32(0xFFFFFFF0) // losses count
	if _, err := DecodeLosses(&Frame{Kind: KindLosses, Payload: w.Bytes()}, nil); err == nil {
		t.Fatal("forged losses count accepted")
	}
	w = NewWriter()
	w.U32(0xFFFFFFF0) // tensor-list count
	if _, err := DecodeTensors(&Frame{Kind: KindFinalParams, Payload: w.Bytes()}); err == nil {
		t.Fatal("forged tensor count accepted")
	}
}

func TestDecodeAssignWrongKind(t *testing.T) {
	if _, err := DecodeAssign(Control(KindHello, NoDev, NoStep)); err == nil {
		t.Fatal("DecodeAssign accepted a hello frame")
	}
}

// TestStreamOfFrames: multiple frames on one stream decode in order —
// the transport relies on frame boundaries being self-describing.
func TestStreamOfFrames(t *testing.T) {
	var buf bytes.Buffer
	want := []*Frame{
		Control(KindHello, NoDev, NoStep),
		EncodeLosses(1, 0, []float64{0.5}),
		EncodeTensor(KindOutput, 2, 1, tensor.Ones(1, 2)),
		Control(KindDrain, NoDev, NoStep),
	}
	for _, f := range want {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, w := range want {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != w.Kind || got.Dev != w.Dev || got.Step != w.Step {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, w)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}
