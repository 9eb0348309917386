package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"pipebd/internal/dataset"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// ModelSpec names a reproducible workbench constructor plus its sizing,
// so a worker can rebuild a bit-identical replica of the coordinator's
// model from the spec alone (the Assign's seed snapshot then guards against
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
	// RetryBudgetMillis > 0 makes every link of the session resumable
	// (codec v8): the control link and every peer link buffer unacked
	// frames and survive connection loss by redial-and-replay, giving up
	// once this much downtime elapses. 0 keeps links fail-fast.
	RetryBudgetMillis int
	// Topology records the run's data plane, "" or "hub" (every peer edge
	// relayed) or "ring" (direct peer links), for the coordinator and its
	// ledger manifest; workers route by the Assign's Relayed list and never
	// read it.
	Topology string
	// Data is the run's batch schedule as a deterministic recipe.
	// First-group devices build each step's batch from it — the only
	// copy of the data a session ever receives. The coordinator
	// validates at run start that the recipe reproduces the actual batches
	// bit-exactly.
	Data DataSpec
	// Trace asks the worker to record per-step span events on every
	// hosted device and ship them to the coordinator as KindSpans frames
	// at step boundaries. Off by default; tracing never alters the
	// training trajectory.
	Trace bool
}

// DataSpec is a deterministic synthetic-dataset recipe split at Batch
// samples each: Kind "" (images) is dataset.NewRandom(Seed, N, C, H, W,
// Classes), Kind "tokens" (codec v7) N sequences of L ids below Vocab
// (dataset.TokenRows). Data is a function of (seed, sample), so any
// process builds any step's batch alone (RowsInto), with bit-identical
// tensors, which is what lets workers source training inputs without
// moving them over any wire.
type DataSpec struct {
	Seed                int64
	N, C, H, W, Classes int
	Batch               int

	Kind     string // "" for images, "tokens" for token sequences
	L, Vocab int    // token-sequence geometry (Kind "tokens")
}

// Validate rejects a recipe the generators cannot evaluate: every count
// must be positive, and the generated tensor must fit in MaxPayload
// bytes, the bound every tensor this codec carries obeys. A recipe
// arrives in an Assign or a ledger manifest, so a malformed one must fail
// here rather than panic inside a generator.
func (ds DataSpec) Validate() error {
	var dims []int
	switch ds.Kind {
	case "":
		dims = []int{ds.N, ds.C, ds.H, ds.W}
	case "tokens":
		if ds.Vocab <= 0 {
			return fmt.Errorf("wire: data recipe vocabulary %d is not positive", ds.Vocab)
		}
		dims = []int{ds.N, ds.L}
	default:
		return fmt.Errorf("wire: unknown data recipe kind %q (want \"\" or \"tokens\")", ds.Kind)
	}
	if ds.Batch <= 0 || ds.Classes <= 0 {
		return fmt.Errorf("wire: data recipe batch %d and classes %d must be positive", ds.Batch, ds.Classes)
	}
	const maxValues = MaxPayload / 4
	values := 1
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("wire: data recipe shape %v has a non-positive dimension", dims)
		}
		if d > maxValues/values {
			return fmt.Errorf("wire: data recipe shape %v exceeds %d float32 values (%d bytes)", dims, maxValues, MaxPayload)
		}
		values *= d
	}
	return nil
}

// Steps is the number of whole batches the recipe yields, N/Batch: the
// final partial batch is dropped, as dataset.Synthetic.Batches drops it.
func (ds DataSpec) Steps() int { return ds.N / ds.Batch }

// BatchShape is the shape of one batch's input tensor.
func (ds DataSpec) BatchShape() []int {
	if ds.Kind == "tokens" {
		return []int{ds.Batch, ds.L}
	}
	return []int{ds.Batch, ds.C, ds.H, ds.W}
}

// RowsInto builds rows lo, lo+1, ... of step's batch of the valid recipe
// into x, one per index of its leading dimension, and their labels into
// labels unless nil; it allocates nothing. With lo 0 and x of
// BatchShape it builds the step's whole batch.
func (ds DataSpec) RowsInto(step, lo int, x *tensor.Tensor, labels []int) error {
	rows, per := x.Dim(0), ds.L
	if ds.Kind != "tokens" {
		per = ds.C * ds.H * ds.W
	}
	if step < 0 || step >= ds.Steps() || lo < 0 || lo+rows > ds.Batch || x.Numel() != rows*per || labels != nil && len(labels) != rows {
		return fmt.Errorf("wire: data recipe has no rows %d-%d of %d values, %d labels, at step %d of %d", lo, lo+rows-1, per, len(labels), step, ds.Steps())
	}
	if first := step*ds.Batch + lo; ds.Kind == "tokens" {
		dataset.TokenRows(ds.Seed, first, per, ds.Vocab, ds.Classes, x.Data(), labels)
	} else {
		dataset.ImageRows(ds.Seed, first, per, ds.Classes, x.Data(), labels)
	}
	return nil
}

// Batches evaluates the recipe into its batch schedule, one RowsInto per
// step.
func (ds DataSpec) Batches() ([]dataset.Batch, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	out := make([]dataset.Batch, ds.Steps())
	for s := range out {
		out[s] = dataset.Batch{X: tensor.New(ds.BatchShape()...), Labels: make([]int, ds.Batch)}
		if err := ds.RowsInto(s, 0, out[s].X, out[s].Labels); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Snapshot is a workbench's seed weights: the frozen teacher's
// parameters indexed [block][param] in declaration order (a teacher has
// no slabs), and each student block's value slab (nn.Slabs.Values), one
// per block.
type Snapshot struct {
	Teacher [][]*tensor.Tensor
	Student []*tensor.Tensor
}

// Assign is the session-open message of every attempt, fresh or
// restarted: everything a worker needs to host its share of a plan's
// devices. It carries no batch: first-group sessions regenerate theirs
// from Run.Data. A ledger manifest embeds one as the run's setup.
type Assign struct {
	Plan    sched.Plan
	Spec    ModelSpec
	Run     RunConfig
	Devices []int // device ranks hosted by the receiving worker
	// Peers is the placement directory for the peer data plane: Peers[d]
	// is the listen address of the worker hosting device d, one entry per
	// device of the plan.
	Peers []string
	// Epoch stamps the run attempt the session belongs to. Peer handshakes
	// carry it so a stale connection from a previous attempt (or a previous
	// coordinator generation) can never wire into a new mesh.
	Epoch    int64
	Snapshot Snapshot
	// Relayed lists the peer edges routed through the coordinator, as
	// flattened device-rank pairs [from0, to0, from1, to1, ...]: every edge
	// of the plan under the hub, the edges degraded so far under the ring.
	// The mesh dials none of these pairs; whatever crosses them —
	// activations, acks, ring segments — travels in KindRelay envelopes.
	Relayed []int
	// States restores the hosted devices before they run: empty when the
	// attempt starts at the seed (Snapshot and a fresh optimizer are the
	// whole state), otherwise States[i] is device Devices[i]'s.
	States []DeviceState
}

// RelayedEdges decodes the flattened Relayed list into pairs.
func (a *Assign) RelayedEdges() [][2]int {
	var out [][2]int
	for i := 0; i+1 < len(a.Relayed); i += 2 {
		out = append(out, [2]int{a.Relayed[i], a.Relayed[i+1]})
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
	w.I32(int32(a.Run.RetryBudgetMillis))
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
	w.U32(uint32(len(a.Snapshot.Teacher)))
	for _, params := range a.Snapshot.Teacher {
		w.Tensors(params)
	}
	w.Tensors(a.Snapshot.Student)
	w.I32s(a.Relayed)
	w.U32(uint32(len(a.States)))
	for _, st := range a.States {
		w.I32(int32(st.Dev))
		w.I32(int32(st.Step))
		w.State(st.Values, st.Velocity)
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
	a.Run.RetryBudgetMillis = int(r.I32())
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
	nb := r.count(r.U32(), 4)
	for i := 0; i < nb && r.Err() == nil; i++ {
		a.Snapshot.Teacher = append(a.Snapshot.Teacher, r.Tensors())
	}
	a.Snapshot.Student = r.Tensors()
	a.Relayed = r.I32s()
	if len(a.Relayed)%2 != 0 {
		return nil, fmt.Errorf("wire: relayed edge list has odd length %d", len(a.Relayed))
	}
	n := r.count(r.U32(), 16) // dev + step + two counted tensor lists
	for i := 0; i < n && r.Err() == nil; i++ {
		st := DeviceState{Dev: int(r.I32()), Step: int(r.I32())}
		st.Values, st.Velocity = r.State()
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
// when present, are the assigned devices', in order.
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
	if len(a.States) != 0 && len(a.States) != len(a.Devices) {
		return nil, fmt.Errorf("wire: assign has %d restart states for %d devices", len(a.States), len(a.Devices))
	}
	for i, st := range a.States {
		if st.Dev != a.Devices[i] {
			return nil, fmt.Errorf("wire: assign's restart state %d is device %d's, not device %d's", i, st.Dev, a.Devices[i])
		}
	}
	return a, nil
}

// DeviceState is one device's recovery state: the step it completed last
// and, as they stood right after that step's update, the value and
// momentum slabs (nn.Slabs) of its blocks, one each per block in group
// order. Writer.State and Reader.State are its one codec.
type DeviceState struct {
	Dev      int
	Step     int
	Values   []*tensor.Tensor
	Velocity []*tensor.Tensor
}

// State appends a device state's slabs: the value slabs, then the
// velocity slabs, each a counted tensor list. A snapshot frame, an
// Assign's States and a ledger snapshot record all carry a state this
// way.
func (w *Writer) State(values, velocity []*tensor.Tensor) {
	w.Tensors(values)
	w.Tensors(velocity)
}

// State reads a device state written by Writer.State. It refuses one
// whose velocity slabs do not pair with its value slabs one for one, in
// count and in shape; whether the slabs fit the model is the reader's
// caller's to check.
func (r *Reader) State() (values, velocity []*tensor.Tensor) {
	values, velocity = r.Tensors(), r.Tensors()
	if r.err != nil {
		return nil, nil
	}
	if len(values) != len(velocity) {
		r.fail("state has %d value slabs but %d velocity slabs", len(values), len(velocity))
		return nil, nil
	}
	for i, v := range values {
		if !velocity[i].SameShape(v) {
			r.fail("state slab %d has values %v but velocity %v", i, v.Shape(), velocity[i].Shape())
			return nil, nil
		}
	}
	return values, velocity
}

// StateBytes reads past a device state written by Writer.State and
// returns its bytes, which alias the payload. It accepts exactly the
// states State decodes, and decodes no float: it reads every tensor's
// header, checks that its data is there, and pairs each velocity slab's
// header with its value slab's. each, when not nil, is called with every
// value slab's index, rank and element count once its pair checked out;
// a walk that fails may have called it for the slabs before the failure.
func (r *Reader) StateBytes(each func(i, rank, n int)) []byte {
	start := r.pos
	nv := r.skipTensors()
	mid := r.pos
	nw := r.skipTensors()
	if r.err != nil {
		return nil
	}
	if nv != nw {
		r.fail("state has %d value slabs but %d velocity slabs", nv, nw)
		return nil
	}
	values, velocity := Reader{buf: r.buf[:mid], pos: start + 4}, Reader{buf: r.buf, pos: mid + 4}
	for i := range nv {
		var vd, wd [maxRank]int
		vs, vraw := values.tensorHeader(&vd)
		ws, _ := velocity.tensorHeader(&wd)
		if !slices.Equal(vs, ws) {
			r.fail("state slab %d has values %v but velocity %v", i, append([]int(nil), vs...), append([]int(nil), ws...))
			return nil
		}
		if each != nil {
			each(i, len(vs), len(vraw)/4)
		}
	}
	return r.buf[start:r.pos]
}

// skipTensors reads past a counted tensor list, checking it as Tensors
// does, and returns its count.
func (r *Reader) skipTensors() int {
	n := r.count(r.U32(), 12)
	for range n {
		var dims [maxRank]int
		if _, raw := r.tensorHeader(&dims); raw == nil {
			return 0
		}
	}
	return n
}

// EncodeDeviceSnapshot packs one device's post-step recovery state: its
// value slabs and velocity slabs (Writer.State).
func EncodeDeviceSnapshot(dev, step int32, values, velocity []*tensor.Tensor) *Frame {
	w := NewWriter()
	w.State(values, velocity)
	return &Frame{Kind: KindSnapshot, Dev: dev, Step: step, Payload: w.Bytes()}
}

// EncodeTensor packs a single tensor into a frame of the given kind
// (KindOutput).
func EncodeTensor(kind Kind, dev, step int32, t *tensor.Tensor) *Frame {
	w := NewWriter()
	w.Tensor(t)
	return &Frame{Kind: kind, Dev: dev, Step: step, Payload: w.Bytes()}
}

// DecodeTensor unpacks a single-tensor frame.
func DecodeTensor(f *Frame) (*tensor.Tensor, error) { return DecodeTensorInto(f, nil) }

// DecodeTensorInto unpacks a single-tensor frame into dst when the frame
// holds a tensor of dst's shape, and into a fresh tensor otherwise
// (Reader.TensorInto); it returns the tensor it filled.
func DecodeTensorInto(f *Frame, dst *tensor.Tensor) (*tensor.Tensor, error) {
	r := NewReader(f.Payload)
	t := r.TensorInto(dst)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return t, nil
}

// EncodeTensors packs a tensor list into a frame of the given kind
// (KindFinalParams: a group leader's value slabs, one per block in group
// order).
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

// EncodeLosses packs a device's per-block losses for one step into a
// pooled frame (pool.go).
func EncodeLosses(dev, step int32, losses []float64) *Frame {
	f := newPooled(KindLosses, dev, step, 4+8*len(losses))
	w := Writer{buf: f.Payload}
	w.F64s(losses)
	f.Payload = w.buf
	return f
}

// DecodeLosses unpacks a losses frame, into dst when it has the capacity
// (Reader.F64s).
func DecodeLosses(f *Frame, dst []float64) ([]float64, error) {
	r := NewReader(f.Payload)
	v := r.F64s(dst)
	if err := r.Close(); err != nil {
		return nil, err
	}
	return v, nil
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

// EncodeLinkAck packs a resumable-link acknowledgement, the cumulative
// count of application frames received on the link, into a pooled frame
// (pool.go).
func EncodeLinkAck(recvd int64) *Frame {
	f := newPooled(KindLinkAck, NoDev, NoStep, 8)
	w := Writer{buf: f.Payload}
	w.I64(recvd)
	f.Payload = w.buf
	return f
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

// EncodeRelay wraps a peer frame for a relayed edge: Dev routes to the
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

// WrapRelay is EncodeRelay taking the caller's reference to inner. A
// pooled peer frame already holds the envelope's prefix in its headroom,
// so its envelope is a reslice of its own buffer — inner itself,
// rewritten, when the caller is its only holder — and nothing is copied.
func WrapRelay(to int32, inner *Frame) *Frame {
	p := inner.pool
	if p == nil || p.mem == nil || cap(inner.Payload) != len(p.mem)-headroom ||
		Kind(p.mem[0]) != inner.Kind || int32(binary.LittleEndian.Uint32(p.mem[1:headroom])) != inner.Dev {
		return EncodeRelay(to, inner)
	}
	return reshape(inner, KindRelay, to, p.mem[:headroom+len(inner.Payload)])
}

// RelayPrefix reads a relay envelope's prefix: the kind and sending
// device of the peer frame inside. Only the three kinds a peer link
// carries may ride in one.
func RelayPrefix(f *Frame) (Kind, int32, error) {
	if f.Kind != KindRelay {
		return 0, 0, fmt.Errorf("wire: expected %v frame, got %v", KindRelay, f.Kind)
	}
	r := NewReader(f.Payload)
	kind, dev := Kind(r.U8()), r.I32()
	if err := r.Err(); err != nil {
		return 0, 0, err
	}
	switch kind {
	case KindOutput, KindPeerAck, KindRingSegment:
	default:
		return 0, 0, fmt.Errorf("wire: relay envelope carries a %v frame", kind)
	}
	return kind, dev, nil
}

// DecodeRelay unwraps a relay envelope into the peer frame it carries,
// whose payload aliases the envelope's.
func DecodeRelay(f *Frame) (*Frame, error) {
	kind, dev, err := RelayPrefix(f)
	if err != nil {
		return nil, err
	}
	return &Frame{Kind: kind, Dev: dev, Step: f.Step, Payload: f.Payload[relayHeader:]}, nil
}

// UnwrapRelay is DecodeRelay taking the caller's reference to f: a pooled
// envelope becomes its inner frame in place when the caller is its only
// holder, and a view of it otherwise. On error the caller keeps f.
func UnwrapRelay(f *Frame) (*Frame, error) {
	if f.pool == nil {
		return DecodeRelay(f)
	}
	kind, dev, err := RelayPrefix(f)
	if err != nil {
		return nil, err
	}
	return reshape(f, kind, dev, f.Payload[relayHeader:]), nil
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

// EncodeRingSegment packs one hop of the decentralized all-reduce — the
// phase, the segment index, and the raw float32 slice — into a pooled
// frame (pool.go).
func EncodeRingSegment(dev, step int32, phase uint8, seg int, data []float32) *Frame {
	f := newPooled(KindRingSegment, dev, step, 1+4+4+4*len(data))
	w := Writer{buf: f.Payload}
	w.U8(phase)
	w.U32(uint32(seg))
	w.F32s(data)
	f.Payload = w.buf
	return f
}

// DecodeRingSegment unpacks a ring-all-reduce frame, its data into dst
// when dst has the capacity (Reader.F32s).
func DecodeRingSegment(f *Frame, dst []float32) (phase uint8, seg int, data []float32, err error) {
	if f.Kind != KindRingSegment {
		return 0, 0, nil, fmt.Errorf("wire: expected %v frame, got %v", KindRingSegment, f.Kind)
	}
	r := NewReader(f.Payload)
	phase = r.U8()
	seg = int(r.U32())
	data = r.F32s(dst)
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
	Step  int32 // the step the batch measures (NoStep for a trailing flush)
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
	return &Frame{Kind: KindSpans, Dev: b.Dev, Step: b.Step, Payload: w.Bytes()}
}

// DecodeSpans unpacks a span-batch frame.
func DecodeSpans(f *Frame) (SpanBatch, error) {
	if f.Kind != KindSpans {
		return SpanBatch{}, fmt.Errorf("wire: expected %v frame, got %v", KindSpans, f.Kind)
	}
	r := NewReader(f.Payload)
	b := SpanBatch{Dev: f.Dev, Step: f.Step, Track: r.String()}
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
