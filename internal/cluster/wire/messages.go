package wire

import (
	"fmt"
	"math/rand"

	"pipebd/internal/dataset"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// ModelSpec names a reproducible workbench constructor plus its sizing,
// so a worker can rebuild a bit-identical replica of the coordinator's
// model from the spec alone (the parameter snapshot then guards against
// any drift in the coordinator's weights).
//
// The conv families use Channels/Height/Width; the transformer family
// (codec v7) reuses Channels as the hidden width and adds its own
// geometry — attention heads, per-side MLP widths, sequence length,
// vocabulary, and the KL temperature of the logit block.
type ModelSpec struct {
	Name     string // registry name, "tiny" or "transformer"
	Seed     int64
	Blocks   int
	Channels int
	Height   int
	Width    int
	Classes  int

	Heads     int
	FFTeacher int
	FFStudent int
	SeqLen    int
	Vocab     int
	Temp      float64
}

// SnapshotPolicy governs the recovery-snapshot traffic of a session: the
// interval trades snapshot bandwidth against replay length. Only rank 0 of
// each group snapshots — the engine's replica guarantee (all members of a
// split group hold bit-identical parameters after every step) makes one
// copy stand for the group.
type SnapshotPolicy struct {
	// Interval asks each group's rank-0 device to emit its recovery state
	// after every k-th step (steps k-1, 2k-1, ...). 0 disables snapshots;
	// negative intervals are invalid.
	Interval int
}

// Enabled reports whether the policy asks for any snapshots at all.
func (p SnapshotPolicy) Enabled() bool { return p.Interval > 0 }

// Covers reports whether a device finishing the given step should emit
// (or a committed snapshot may exist for) that step under the policy.
func (p SnapshotPolicy) Covers(step int) bool {
	return p.Interval > 0 && (step+1)%p.Interval == 0
}

// Validate rejects malformed policies.
func (p SnapshotPolicy) Validate() error {
	if p.Interval < 0 {
		return fmt.Errorf("wire: snapshot interval must be >= 0, got %d", p.Interval)
	}
	return nil
}

// RunConfig is the per-session training configuration.
type RunConfig struct {
	DPU      bool
	LR       float32
	Momentum float32
	Steps    int
	Backend  string // tensor backend registry name; "" keeps the worker default
	// Snap schedules the KindSnapshot frames that feed the coordinator's
	// replay-based recovery; the zero policy disables them.
	Snap SnapshotPolicy
	// HeartbeatMillis asks the worker to emit KindHeartbeat frames on this
	// interval; <= 0 disables the beacon.
	HeartbeatMillis int
	// Topology selects the data plane: "" or "hub" routes activations and
	// gradient reductions through the coordinator; "ring" moves them onto
	// direct worker-to-worker links (the coordinator keeps only the
	// control plane: placement, barriers, losses, snapshots).
	Topology string
	// Data optionally describes the run's batch schedule as a
	// deterministic recipe (N > 0 enables it): sessions hosting
	// first-group devices regenerate their batches locally instead of
	// receiving them in the Assign — distributed data loading. The
	// coordinator validates at run start that the recipe reproduces the
	// actual batches bit-exactly.
	Data DataSpec
	// Trace asks the worker to record per-step span events on every
	// hosted device and ship them to the coordinator as KindSpans frames
	// at step boundaries. Off by default; tracing never alters the
	// training trajectory.
	Trace bool
	// Retry enables resumable links (codec v8): both the control link and
	// every peer link buffer unacked frames and survive connection loss
	// by redial-and-replay instead of failing the session. The zero spec
	// disables absorption, keeping the pre-v8 fail-fast behavior.
	Retry RetrySpec
}

// RetrySpec is the transient-fault absorption policy of a session's
// links. BudgetMillis > 0 enables it: a broken link redials with
// exponential backoff starting at BackoffMillis, gives up (terminal
// link-down) once BudgetMillis of downtime elapses, and each side acks
// every AckEvery received frames so replay buffers stay bounded. Zero
// Backoff/AckEvery take defaults (10 ms / 8 frames).
type RetrySpec struct {
	BackoffMillis int
	BudgetMillis  int
	AckEvery      int
}

// Enabled reports whether the spec asks for fault absorption at all.
func (r RetrySpec) Enabled() bool { return r.BudgetMillis > 0 }

// DataSpec is a deterministic synthetic-dataset recipe split at Batch
// samples each: Kind "" (images) regenerates
// dataset.NewRandom(rand.NewSource(Seed), N, C, H, W, Classes), Kind
// "tokens" (codec v7) regenerates dataset.NewTokens(rand.NewSource(Seed),
// N, L, Vocab, Classes). Any process evaluating a recipe gets
// bit-identical tensors, which is what lets workers source training
// inputs without moving them over any wire.
type DataSpec struct {
	Seed                int64
	N, C, H, W, Classes int
	Batch               int

	Kind     string // "" for images, "tokens" for token sequences
	L, Vocab int    // token-sequence geometry (Kind "tokens")
}

// Build evaluates the recipe into its synthetic dataset. The generators
// draw from the seeded source in a fixed order, so every process gets
// bit-identical data.
func (ds DataSpec) Build() (*dataset.Synthetic, error) {
	switch ds.Kind {
	case "":
		return dataset.NewRandom(rand.New(rand.NewSource(ds.Seed)), ds.N, ds.C, ds.H, ds.W, ds.Classes), nil
	case "tokens":
		return dataset.NewTokens(rand.New(rand.NewSource(ds.Seed)), ds.N, ds.L, ds.Vocab, ds.Classes), nil
	default:
		return nil, fmt.Errorf("wire: unknown data recipe kind %q (want \"\" or \"tokens\")", ds.Kind)
	}
}

// Batches evaluates the recipe and splits it into its batch schedule.
func (ds DataSpec) Batches() ([]dataset.Batch, error) {
	s, err := ds.Build()
	if err != nil {
		return nil, err
	}
	return s.Batches(ds.Batch), nil
}

// Snapshot is a full parameter snapshot of a workbench, indexed
// [block][param] in declaration order, for the frozen teacher and the
// trainable student separately.
type Snapshot struct {
	Teacher [][]*tensor.Tensor
	Student [][]*tensor.Tensor
}

// Assign is the session-open message of every attempt, fresh or
// restarted: everything a worker needs to host its share of a plan's
// devices.
type Assign struct {
	Plan    sched.Plan
	Spec    ModelSpec
	Run     RunConfig
	Devices []int // device ranks hosted by the receiving worker
	// Peers is the placement directory for the peer data plane: Peers[d]
	// is the listen address of the worker hosting device d. Required
	// (len == total devices) when Run.Topology is "ring"; empty for hub
	// sessions.
	Peers []string
	// Epoch stamps the run attempt the session belongs to. Peer handshakes
	// carry it so a stale connection from a previous attempt (or a previous
	// coordinator generation) can never wire into a new mesh.
	Epoch    int64
	Snapshot Snapshot
	// Inputs carries the run's whole batch-input schedule (Inputs[s] is
	// step s's full batch) to sessions hosting first-group devices, so the
	// run needs no per-step input frames from the coordinator. Empty for
	// sessions hosting only later groups and when Run.Data has the workers
	// regenerate the schedule themselves.
	Inputs []*tensor.Tensor
	// Degraded lists peer edges demoted to hub-relayed routing, as
	// flattened device-rank pairs [from0, to0, from1, to1, ...]. The mesh
	// dials none of these pairs; whatever crosses them — activations, acks,
	// ring segments — travels in KindRelay envelopes via the coordinator.
	// Empty in the fault-free case.
	Degraded []int
	// States restores the hosted devices before they run: empty when the
	// attempt starts at the seed (Snapshot and a fresh optimizer are the
	// whole state), otherwise exactly one entry per entry of Devices.
	States []DeviceState
}

// DegradedEdges decodes the flattened Degraded list into pairs.
func (a *Assign) DegradedEdges() [][2]int {
	var out [][2]int
	for i := 0; i+1 < len(a.Degraded); i += 2 {
		out = append(out, [2]int{a.Degraded[i], a.Degraded[i+1]})
	}
	return out
}

// writeAssignBody packs the Assign fields.
func writeAssignBody(w *Writer, a *Assign) {
	writePlan(w, a.Plan)
	w.String(a.Spec.Name)
	w.I64(a.Spec.Seed)
	w.I32(int32(a.Spec.Blocks))
	w.I32(int32(a.Spec.Channels))
	w.I32(int32(a.Spec.Height))
	w.I32(int32(a.Spec.Width))
	w.I32(int32(a.Spec.Classes))
	w.I32(int32(a.Spec.Heads))
	w.I32(int32(a.Spec.FFTeacher))
	w.I32(int32(a.Spec.FFStudent))
	w.I32(int32(a.Spec.SeqLen))
	w.I32(int32(a.Spec.Vocab))
	w.F64(a.Spec.Temp)
	w.Bool(a.Run.DPU)
	w.F32(a.Run.LR)
	w.F32(a.Run.Momentum)
	w.I32(int32(a.Run.Steps))
	w.String(a.Run.Backend)
	w.I32(int32(a.Run.Snap.Interval))
	w.I32(int32(a.Run.HeartbeatMillis))
	w.String(a.Run.Topology)
	w.I64(a.Run.Data.Seed)
	w.I32(int32(a.Run.Data.N))
	w.I32(int32(a.Run.Data.C))
	w.I32(int32(a.Run.Data.H))
	w.I32(int32(a.Run.Data.W))
	w.I32(int32(a.Run.Data.Classes))
	w.I32(int32(a.Run.Data.Batch))
	w.String(a.Run.Data.Kind)
	w.I32(int32(a.Run.Data.L))
	w.I32(int32(a.Run.Data.Vocab))
	w.Bool(a.Run.Trace)
	w.I32s(a.Devices)
	w.U32(uint32(len(a.Peers)))
	for _, p := range a.Peers {
		w.String(p)
	}
	w.I64(a.Epoch)
	writeSnapshotHalf(w, a.Snapshot.Teacher)
	writeSnapshotHalf(w, a.Snapshot.Student)
	w.Tensors(a.Inputs)
	w.I32s(a.Degraded)
	w.I32(int32(a.Run.Retry.BackoffMillis))
	w.I32(int32(a.Run.Retry.BudgetMillis))
	w.I32(int32(a.Run.Retry.AckEvery))
	w.U32(uint32(len(a.States)))
	for _, st := range a.States {
		w.I32(int32(st.Dev))
		w.I32(int32(st.Step))
		w.Tensors(st.Params)
		w.Tensors(st.Velocity)
	}
}

// readAssignBody unpacks the Assign fields written by writeAssignBody.
func readAssignBody(r *Reader) (*Assign, error) {
	a := &Assign{}
	a.Plan = readPlan(r)
	a.Spec.Name = r.String()
	a.Spec.Seed = r.I64()
	a.Spec.Blocks = int(r.I32())
	a.Spec.Channels = int(r.I32())
	a.Spec.Height = int(r.I32())
	a.Spec.Width = int(r.I32())
	a.Spec.Classes = int(r.I32())
	a.Spec.Heads = int(r.I32())
	a.Spec.FFTeacher = int(r.I32())
	a.Spec.FFStudent = int(r.I32())
	a.Spec.SeqLen = int(r.I32())
	a.Spec.Vocab = int(r.I32())
	a.Spec.Temp = r.F64()
	a.Run.DPU = r.Bool()
	a.Run.LR = r.F32()
	a.Run.Momentum = r.F32()
	a.Run.Steps = int(r.I32())
	a.Run.Backend = r.String()
	a.Run.Snap.Interval = int(r.I32())
	a.Run.HeartbeatMillis = int(r.I32())
	a.Run.Topology = r.String()
	a.Run.Data.Seed = r.I64()
	a.Run.Data.N = int(r.I32())
	a.Run.Data.C = int(r.I32())
	a.Run.Data.H = int(r.I32())
	a.Run.Data.W = int(r.I32())
	a.Run.Data.Classes = int(r.I32())
	a.Run.Data.Batch = int(r.I32())
	a.Run.Data.Kind = r.String()
	a.Run.Data.L = int(r.I32())
	a.Run.Data.Vocab = int(r.I32())
	a.Run.Trace = r.Bool()
	a.Devices = r.I32s()
	np := r.count(r.U32(), 4)
	for i := 0; i < np && r.Err() == nil; i++ {
		a.Peers = append(a.Peers, r.String())
	}
	a.Epoch = r.I64()
	var err error
	if a.Snapshot.Teacher, err = readSnapshotHalf(r); err != nil {
		return nil, err
	}
	if a.Snapshot.Student, err = readSnapshotHalf(r); err != nil {
		return nil, err
	}
	a.Inputs = r.Tensors()
	a.Degraded = r.I32s()
	a.Run.Retry.BackoffMillis = int(r.I32())
	a.Run.Retry.BudgetMillis = int(r.I32())
	a.Run.Retry.AckEvery = int(r.I32())
	if len(a.Degraded)%2 != 0 {
		return nil, fmt.Errorf("wire: degraded edge list has odd length %d", len(a.Degraded))
	}
	n := r.count(r.U32(), 16) // dev + step + two counted tensor lists
	for i := 0; i < n && r.Err() == nil; i++ {
		st := DeviceState{Dev: int(r.I32()), Step: int(r.I32())}
		st.Params = r.Tensors()
		st.Velocity = r.Tensors()
		if len(st.Params) != len(st.Velocity) {
			return nil, fmt.Errorf("wire: restart state for device %d has %d params but %d velocities",
				st.Dev, len(st.Params), len(st.Velocity))
		}
		a.States = append(a.States, st)
	}
	return a, r.Err()
}

// writePlan packs a sched.Plan; the single codec shared by the Assign,
// the Repartition announcement, and the ledger's repartition record, so a
// plan round-trips identically everywhere.
func writePlan(w *Writer, p sched.Plan) {
	w.String(p.Name)
	w.U32(uint32(len(p.Groups)))
	for _, g := range p.Groups {
		w.I32s(g.Devices)
		w.I32s(g.Blocks)
		w.I32s(g.Shares)
	}
}

// readPlan unpacks a plan written by writePlan; errors surface through
// the reader's sticky error.
func readPlan(r *Reader) sched.Plan {
	var p sched.Plan
	p.Name = r.String()
	ng := r.count(r.U32(), 12) // each group holds three counted slices
	for i := 0; i < ng && r.Err() == nil; i++ {
		g := sched.Group{Devices: r.I32s(), Blocks: r.I32s(), Shares: r.I32s()}
		p.Groups = append(p.Groups, g)
	}
	return p
}

// EncodePlan packs a plan into a standalone byte payload (the ledger's
// repartition record body).
func EncodePlan(p sched.Plan) []byte {
	w := NewWriter()
	writePlan(w, p)
	return w.Bytes()
}

// DecodePlan unpacks a payload written by EncodePlan.
func DecodePlan(b []byte) (sched.Plan, error) {
	r := NewReader(b)
	p := readPlan(r)
	if err := r.Close(); err != nil {
		return sched.Plan{}, err
	}
	return p, nil
}

// EncodeRepartition packs a planned-repartition announcement: the run is
// cut after step `cut` and restarts on plan p.
func EncodeRepartition(cut int32, p sched.Plan) *Frame {
	return &Frame{Kind: KindRepartition, Dev: NoDev, Step: cut, Payload: EncodePlan(p)}
}

// EncodeAssign packs an Assign into a frame.
func EncodeAssign(a *Assign) *Frame {
	w := NewWriter()
	writeAssignBody(w, a)
	return &Frame{Kind: KindAssign, Dev: NoDev, Step: NoStep, Payload: w.Bytes()}
}

// DecodeAssign unpacks an Assign frame, validating that restart states,
// when present, match the assigned devices one-to-one.
func DecodeAssign(f *Frame) (*Assign, error) {
	if f.Kind != KindAssign {
		return nil, fmt.Errorf("wire: expected %v frame, got %v", KindAssign, f.Kind)
	}
	r := NewReader(f.Payload)
	a, err := readAssignBody(r)
	if err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if len(a.States) == 0 {
		return a, nil
	}
	restored := make(map[int]bool, len(a.Devices))
	for _, d := range a.Devices {
		restored[d] = false
	}
	for _, st := range a.States {
		done, hosted := restored[st.Dev]
		if !hosted {
			return nil, fmt.Errorf("wire: assign has a restart state for device %d, which it does not host", st.Dev)
		}
		if done {
			return nil, fmt.Errorf("wire: assign has duplicate restart state for device %d", st.Dev)
		}
		restored[st.Dev] = true
	}
	for d, done := range restored {
		if !done {
			return nil, fmt.Errorf("wire: assign is missing restart state for device %d", d)
		}
	}
	return a, nil
}

// DeviceState is one device's recovery state: the step it completed last
// and the student parameters plus optimizer velocities it held right
// after that step's update (its GradTensors order: blocks in group order,
// parameters in declaration order).
type DeviceState struct {
	Dev      int
	Step     int
	Params   []*tensor.Tensor
	Velocity []*tensor.Tensor
}

// EncodeDeviceSnapshot packs one device's post-step recovery state.
func EncodeDeviceSnapshot(dev, step int32, params, velocity []*tensor.Tensor) *Frame {
	w := NewWriter()
	w.Tensors(params)
	w.Tensors(velocity)
	return &Frame{Kind: KindSnapshot, Dev: dev, Step: step, Payload: w.Bytes()}
}

// DecodeDeviceSnapshot unpacks a snapshot frame into its parameter and
// velocity lists. The two lists must have the same length.
func DecodeDeviceSnapshot(f *Frame) (params, velocity []*tensor.Tensor, err error) {
	r := NewReader(f.Payload)
	params = r.Tensors()
	velocity = r.Tensors()
	if err := r.Close(); err != nil {
		return nil, nil, err
	}
	if len(params) != len(velocity) {
		return nil, nil, fmt.Errorf("wire: snapshot has %d params but %d velocities", len(params), len(velocity))
	}
	return params, velocity, nil
}

func writeSnapshotHalf(w *Writer, blocks [][]*tensor.Tensor) {
	w.U32(uint32(len(blocks)))
	for _, params := range blocks {
		w.Tensors(params)
	}
}

func readSnapshotHalf(r *Reader) ([][]*tensor.Tensor, error) {
	n := r.count(r.U32(), 4)
	out := make([][]*tensor.Tensor, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.Tensors())
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return out, r.Err()
}

// EncodeTensor packs a single tensor into a frame of the given kind
// (KindInput or KindOutput).
func EncodeTensor(kind Kind, dev, step int32, t *tensor.Tensor) *Frame {
	w := NewWriter()
	w.Tensor(t)
	return &Frame{Kind: kind, Dev: dev, Step: step, Payload: w.Bytes()}
}

// DecodeTensor unpacks a single-tensor frame.
func DecodeTensor(f *Frame) (*tensor.Tensor, error) {
	r := NewReader(f.Payload)
	t := r.Tensor()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return t, nil
}

// EncodeTensors packs a tensor list into a frame of the given kind
// (KindGrads, KindGradsReduced, or KindFinalParams).
func EncodeTensors(kind Kind, dev, step int32, ts []*tensor.Tensor) *Frame {
	w := NewWriter()
	w.Tensors(ts)
	return &Frame{Kind: kind, Dev: dev, Step: step, Payload: w.Bytes()}
}

// DecodeTensors unpacks a tensor-list frame.
func DecodeTensors(f *Frame) ([]*tensor.Tensor, error) {
	r := NewReader(f.Payload)
	ts := r.Tensors()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return ts, nil
}

// EncodeLosses packs a device's per-block losses for one step.
func EncodeLosses(dev, step int32, losses []float64) *Frame {
	w := NewWriter()
	w.F64s(losses)
	return &Frame{Kind: KindLosses, Dev: dev, Step: step, Payload: w.Bytes()}
}

// DecodeLosses unpacks a losses frame.
func DecodeLosses(f *Frame) ([]float64, error) {
	r := NewReader(f.Payload)
	v := r.F64s()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return v, nil
}

// EncodeBatch packs a dataset batch (input tensor plus labels) into a
// payload; the ledger manifest stores its batches this way. An empty
// batch — no tensor, no labels — encodes and decodes cleanly.
func EncodeBatch(b dataset.Batch) []byte {
	w := NewWriter()
	w.Bool(b.X != nil)
	if b.X != nil {
		w.Tensor(b.X)
	}
	w.I32s(b.Labels)
	return w.Bytes()
}

// DecodeBatch unpacks a payload written by EncodeBatch.
func DecodeBatch(payload []byte) (dataset.Batch, error) {
	r := NewReader(payload)
	var b dataset.Batch
	if r.Bool() {
		b.X = r.Tensor()
	}
	b.Labels = r.I32s()
	if err := r.Close(); err != nil {
		return dataset.Batch{}, err
	}
	return b, nil
}

// PeerHello identifies a worker-to-worker link during the mesh-dial
// phase: the run epoch it belongs to and the device pair it connects
// (From dialed, To accepted). A resume hello re-attaches a redialed
// connection to an existing link: Resume marks it and Recvd carries the
// sender's count of application frames received before the break, so the
// far side replays exactly the frames that were lost. The coordinator's
// end of a control link is From NoDev, To any device the session hosts.
type PeerHello struct {
	Epoch  int64
	From   int
	To     int
	Resume bool
	Recvd  int64
}

// EncodePeerHello packs a peer handshake frame.
func EncodePeerHello(h PeerHello) *Frame {
	w := NewWriter()
	w.I64(h.Epoch)
	w.I32(int32(h.From))
	w.I32(int32(h.To))
	w.Bool(h.Resume)
	w.I64(h.Recvd)
	return &Frame{Kind: KindPeerHello, Dev: int32(h.From), Step: NoStep, Payload: w.Bytes()}
}

// DecodePeerHello unpacks a peer handshake frame.
func DecodePeerHello(f *Frame) (PeerHello, error) {
	if f.Kind != KindPeerHello {
		return PeerHello{}, fmt.Errorf("wire: expected %v frame, got %v", KindPeerHello, f.Kind)
	}
	r := NewReader(f.Payload)
	h := PeerHello{Epoch: r.I64(), From: int(r.I32()), To: int(r.I32())}
	h.Resume = r.Bool()
	h.Recvd = r.I64()
	if err := r.Close(); err != nil {
		return PeerHello{}, err
	}
	return h, nil
}

// EncodeLinkAck packs a resumable-link acknowledgement: the cumulative
// count of application frames received on the link.
func EncodeLinkAck(recvd int64) *Frame {
	w := NewWriter()
	w.I64(recvd)
	return &Frame{Kind: KindLinkAck, Dev: NoDev, Step: NoStep, Payload: w.Bytes()}
}

// DecodeLinkAck unpacks a link acknowledgement.
func DecodeLinkAck(f *Frame) (int64, error) {
	if f.Kind != KindLinkAck {
		return 0, fmt.Errorf("wire: expected %v frame, got %v", KindLinkAck, f.Kind)
	}
	r := NewReader(f.Payload)
	n := r.I64()
	if err := r.Close(); err != nil {
		return 0, err
	}
	return n, nil
}

// EncodeLinkDown packs a terminal peer-link failure report: the device
// edge whose reconnect budget is exhausted.
func EncodeLinkDown(from, to int) *Frame {
	w := NewWriter()
	w.I32(int32(from))
	w.I32(int32(to))
	return &Frame{Kind: KindLinkDown, Dev: NoDev, Step: NoStep, Payload: w.Bytes()}
}

// DecodeLinkDown unpacks a link-down report into its device edge.
func DecodeLinkDown(f *Frame) (from, to int, err error) {
	if f.Kind != KindLinkDown {
		return 0, 0, fmt.Errorf("wire: expected %v frame, got %v", KindLinkDown, f.Kind)
	}
	r := NewReader(f.Payload)
	from, to = int(r.I32()), int(r.I32())
	if err := r.Close(); err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

// relayHeader is the envelope's own prefix: inner kind byte + sending device.
const relayHeader = 5

// EncodeRelay wraps a peer frame for a degraded edge: Dev routes to the
// destination device, Step is the inner frame's, and the payload is the
// inner kind byte, the sending device (the inner frame's Dev) and the inner
// payload verbatim — the bytes the direct link would have carried.
func EncodeRelay(to int32, inner *Frame) *Frame {
	w := &Writer{buf: make([]byte, 0, relayHeader+len(inner.Payload))}
	w.U8(uint8(inner.Kind))
	w.I32(inner.Dev)
	w.buf = append(w.buf, inner.Payload...)
	return &Frame{Kind: KindRelay, Dev: to, Step: inner.Step, Payload: w.Bytes()}
}

// DecodeRelay unwraps a relay envelope into the peer frame it carries.
// Only the three kinds a peer link carries may ride in one.
func DecodeRelay(f *Frame) (*Frame, error) {
	if f.Kind != KindRelay {
		return nil, fmt.Errorf("wire: expected %v frame, got %v", KindRelay, f.Kind)
	}
	r := NewReader(f.Payload)
	inner := &Frame{Kind: Kind(r.U8()), Dev: r.I32(), Step: f.Step}
	if err := r.Err(); err != nil {
		return nil, err
	}
	switch inner.Kind {
	case KindPeerInput, KindPeerAck, KindRingSegment:
	default:
		return nil, fmt.Errorf("wire: relay envelope carries a %v frame", inner.Kind)
	}
	inner.Payload = f.Payload[relayHeader:]
	return inner, nil
}

// Ring-all-reduce phases carried by KindRingSegment frames.
const (
	// RingContrib is a reduce-scatter contribution: the sender's raw
	// gradient slice for the segment owned by the receiving rank.
	RingContrib uint8 = 0
	// RingGather is an all-gather round: a fully reduced segment
	// propagating around the ring.
	RingGather uint8 = 1
	// RingFull is the two-member fallback: the sender's entire flattened
	// gradient vector in one frame.
	RingFull uint8 = 2
)

// EncodeRingSegment packs one hop of the decentralized all-reduce: the
// phase, the segment index, and the raw float32 slice.
func EncodeRingSegment(dev, step int32, phase uint8, seg int, data []float32) *Frame {
	w := NewWriter()
	w.U8(phase)
	w.U32(uint32(seg))
	w.F32s(data)
	return &Frame{Kind: KindRingSegment, Dev: dev, Step: step, Payload: w.Bytes()}
}

// DecodeRingSegment unpacks a ring-all-reduce frame.
func DecodeRingSegment(f *Frame) (phase uint8, seg int, data []float32, err error) {
	if f.Kind != KindRingSegment {
		return 0, 0, nil, fmt.Errorf("wire: expected %v frame, got %v", KindRingSegment, f.Kind)
	}
	r := NewReader(f.Payload)
	phase = r.U8()
	seg = int(r.U32())
	data = r.F32s()
	if err := r.Close(); err != nil {
		return 0, 0, nil, err
	}
	if phase > RingFull {
		return 0, 0, nil, fmt.Errorf("wire: unknown ring phase %d", phase)
	}
	return phase, seg, data, nil
}

// SpanBatch is a batch of spans from one worker-side track, shipped to
// the coordinator at a step boundary. A span crosses the wire as its
// name, its category as an int32, and its wall-clock start and duration
// in nanoseconds.
type SpanBatch struct {
	Dev   int32 // hosting device rank (NoDev for non-device tracks)
	Track string
	Spans []obs.Span
}

// EncodeSpans packs a span batch.
func EncodeSpans(b SpanBatch) *Frame {
	w := NewWriter()
	w.String(b.Track)
	w.U32(uint32(len(b.Spans)))
	for _, s := range b.Spans {
		w.String(s.Name)
		w.I32(int32(s.Cat))
		w.I64(s.Start)
		w.I64(s.Dur)
	}
	return &Frame{Kind: KindSpans, Dev: b.Dev, Step: NoStep, Payload: w.Bytes()}
}

// DecodeSpans unpacks a span-batch frame.
func DecodeSpans(f *Frame) (SpanBatch, error) {
	if f.Kind != KindSpans {
		return SpanBatch{}, fmt.Errorf("wire: expected %v frame, got %v", KindSpans, f.Kind)
	}
	r := NewReader(f.Payload)
	b := SpanBatch{Dev: f.Dev, Track: r.String()}
	n := r.count(r.U32(), 24) // name length + cat + start + dur
	for i := 0; i < n && r.Err() == nil; i++ {
		b.Spans = append(b.Spans, obs.Span{
			Name: r.String(), Cat: obs.Category(r.I32()), Start: r.I64(), Dur: r.I64(),
		})
	}
	if err := r.Close(); err != nil {
		return SpanBatch{}, err
	}
	return b, nil
}

// Control returns a payload-free frame of the given kind (KindHello,
// KindStepDone, KindStepGo, KindDone, KindDrain, KindPeerAck).
func Control(kind Kind, dev, step int32) *Frame {
	return &Frame{Kind: kind, Dev: dev, Step: step}
}
