// Package wire is the compact binary codec of the cluster subsystem: a
// framed, versioned message format carrying tensors, batches, parameter
// and gradient snapshots, loss reports, and control messages between the
// coordinator and worker processes.
//
// Every frame is a fixed 16-byte header (magic, version, kind, device
// rank, step index, payload length) followed by a little-endian payload.
// Float32 tensor data crosses the wire via math.Float32bits, so encoding
// is exact: a round trip reproduces every value bit-for-bit, which the
// cluster's bit-equivalence guarantee depends on. All decode paths return
// errors — never panic — on truncated, oversized, or malformed input, and
// frames from a different codec version are rejected outright.
//
// A session has one way in (Assign) and its links one way to open or
// resume (PeerHello, echoed; the coordinator is device NoDev). Frames a
// peer link carries — PeerInput, PeerAck, RingSegment — cross a degraded
// edge unchanged inside a Relay envelope that only the two ends interpret.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"pipebd/internal/tensor"
)

const (
	// Magic is the first byte of every frame.
	Magic = 0xBD
	// Version is the codec version; frames with any other version are
	// rejected by ReadFrame. Version 2 added the fault-tolerance frames
	// (Heartbeat, Snapshot, Resume); version 3 replaced RunConfig's
	// all-or-nothing Snapshots flag with a SnapshotPolicy (interval k plus
	// rank-0 dedup for split groups), so an un-upgraded peer fails its
	// handshake cleanly instead of mis-decoding the session setup; version
	// 4 added the peer-to-peer data plane (RunConfig.Topology, the Assign
	// peer directory, epoch, and prestaged batch-input schedule, and the
	// PeerHello / PeerInput / RingSegment / PeerAck frames that carry
	// activations and ring-all-reduce segments directly between workers);
	// version 5 added the observability plane (RunConfig.Trace and the
	// Spans frame carrying worker-side span batches to the coordinator);
	// version 6 added the runtime repartition plane (the Repartition
	// frame announcing a planned placement change, cut step plus the new
	// plan, so workers distinguish an intentional session supersession
	// from a failure); version 7 added the transformer workload (the
	// ModelSpec attention/MLP/sequence geometry and KL temperature, and
	// the DataSpec kind selecting token-sequence recipes); version 8
	// added the transient-fault absorption plane (RunConfig.Retry, the
	// Assign session id and degraded-edge list, the PeerHello resume
	// fields, and the LinkAck / LinkDown / Relay frames behind resumable
	// links and hub-degraded routing);
	// version 9 made the session start one way: the Assign carries the
	// optional per-device restart states the retired Resume frame held,
	// RunConfig lost Buffer and the snapshot policy's rank-0 dedup flag
	// (only rank 0 of a group snapshots), and the Resume and Batch kinds
	// were retired; version 10 made every link of a session open and resume
	// one way: a redialed control link re-attaches with a resume PeerHello
	// from NoDev (the SessionResume kind, byte 24, and the Assign session id
	// are retired), and Relay became an opaque envelope around any peer
	// frame, so the RelayAck kind, byte 27, is retired too.
	Version = 10

	headerLen = 16
	// MaxPayload bounds a frame's payload so a corrupted or adversarial
	// length prefix cannot trigger a giant allocation.
	MaxPayload = 1 << 30
	// maxRank bounds tensor rank; the engine's tensors are at most 4-D.
	maxRank = 8
	// maxString bounds encoded string lengths (names, spec labels).
	maxString = 1 << 16
)

// Kind identifies a frame's message type.
type Kind uint8

const (
	// KindHello is sent by a worker immediately after a coordinator
	// connects, announcing the worker is ready for an Assign.
	KindHello Kind = iota + 1
	// KindAssign opens every session, fresh or restarted: plan, model
	// spec, run config, hosted device ranks, the seed parameter snapshot,
	// and — when the attempt starts past the seed — the per-device restart
	// states to install before replaying.
	KindAssign
	// KindInput carries a device's full-batch input activation for one
	// step (the data batch for group 0, the relayed teacher activation
	// otherwise).
	KindInput
	// KindOutput carries a device's boundary-activation shard for one
	// step, flowing back to the coordinator for assembly.
	KindOutput
	// KindGrads carries a member's flattened gradient tensors for one
	// step of the intra-group all-reduce.
	KindGrads
	// KindGradsReduced carries the rank-ordered gradient mean back to a
	// member.
	KindGradsReduced
	// KindStepDone signals a device finished its backward pass for one
	// step (only sent when decoupled parameter update is disabled).
	KindStepDone
	// KindStepGo releases all devices' parameter updates for one step
	// (the global no-DPU barrier).
	KindStepGo
	// KindLosses streams a device's per-block losses for one step.
	KindLosses
	// KindFinalParams carries a group leader's trained student
	// parameters back to the coordinator after the last step.
	KindFinalParams
	// KindDone signals a device completed its run.
	KindDone
	// KindDrain asks the worker to end the session; the worker returns
	// to accepting coordinators (or exits, for bounded-session servers).
	KindDrain
	_ // 13 was the Batch kind, retired in version 9 (nothing ever sent one)
	// KindHeartbeat is a liveness beacon a worker emits on an interval so
	// the coordinator can declare it dead on silence (hang, partition)
	// rather than only on a connection error.
	KindHeartbeat
	// KindSnapshot carries one device's recovery state after it finished a
	// step: the student parameters and optimizer velocities the device
	// would need to replay the next step bit-identically.
	KindSnapshot
	_ // 16 was the Resume kind, retired in version 9 (folded into KindAssign)
	// KindPeerHello is the worker-to-worker handshake of the peer data
	// plane: after dialing a peer worker, a session identifies the link it
	// is establishing (run epoch, dialing device, target device). The
	// accepting session echoes the frame back on the same connection to
	// complete the handshake.
	KindPeerHello
	// KindPeerInput carries a device's boundary-activation shard for one
	// step directly to a member of the next group (ring topology's
	// replacement for the KindOutput → coordinator → KindInput relay).
	KindPeerInput
	// KindRingSegment carries one segment of the decentralized gradient
	// all-reduce between members of a split group: reduce-scatter
	// contributions, all-gather rounds, and the two-member full-vector
	// exchange.
	KindRingSegment
	// KindPeerAck acknowledges consumption of a peer-input frame so the
	// sending device can bound its in-flight activation window.
	KindPeerAck
	// KindSpans carries a batch of observability span events from a
	// worker-hosted device track to the coordinator (sent at step
	// boundaries when RunConfig.Trace is set; never on the hot path of an
	// untraced run).
	KindSpans
	// KindRepartition announces a planned runtime repartition to every
	// device of a session: the run is being cut at the frame's Step (the
	// last step whose state carries over) and will restart on the payload
	// plan. Receiving it means the session is superseded deliberately —
	// the worker ends the session cleanly and stays up for the resumed
	// placement — not that anything failed.
	KindRepartition
	// KindLinkAck is the resumable-link acknowledgement: the cumulative
	// count of application frames the sender has received on this link.
	// It is consumed inside transport.Resumable — never counted as an
	// application frame itself — and lets the far side trim its replay
	// buffer.
	KindLinkAck
	_ // 24 was the SessionResume kind, retired in version 10 (a resume PeerHello from NoDev)
	// KindLinkDown reports a peer link whose reconnect budget is
	// exhausted: the payload names the device edge. The coordinator's
	// fault classifier uses these reports (plus a worker liveness probe)
	// to degrade the broken edges to hub-relayed routing instead of
	// consuming a restart-budget unit.
	KindLinkDown
	// KindRelay is the envelope a peer frame (PeerInput, PeerAck or
	// RingSegment) crosses a degraded peer edge in: the sending session
	// ships it up its control link, the coordinator forwards it verbatim by
	// Dev — the destination device — and the hosting session unwraps it
	// into the peer inbox the direct link would have filled.
	KindRelay
	// 27 was the RelayAck kind, retired in version 10 (a PeerAck in a Relay).
)

var kindNames = map[Kind]string{
	KindHello: "hello", KindAssign: "assign", KindInput: "input",
	KindOutput: "output", KindGrads: "grads", KindGradsReduced: "grads-reduced",
	KindStepDone: "step-done", KindStepGo: "step-go", KindLosses: "losses",
	KindFinalParams: "final-params", KindDone: "done", KindDrain: "drain",
	KindHeartbeat: "heartbeat", KindSnapshot: "snapshot",
	KindPeerHello: "peer-hello", KindPeerInput: "peer-input",
	KindRingSegment: "ring-segment", KindPeerAck: "peer-ack", KindSpans: "spans",
	KindRepartition: "repartition", KindLinkAck: "link-ack",
	KindLinkDown: "link-down", KindRelay: "relay",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Frame is one wire message: a kind, the device rank and step it applies
// to (NoDev / NoStep when not applicable), and an opaque payload decoded
// by the kind-specific helpers.
type Frame struct {
	Kind    Kind
	Dev     int32
	Step    int32
	Payload []byte
}

// NoDev and NoStep mark frames that are not scoped to a device or step.
const (
	NoDev  int32 = -1
	NoStep int32 = -1
)

// ErrVersion is wrapped by ReadFrame errors caused by a frame from a
// different codec version.
var ErrVersion = errors.New("wire: version mismatch")

// WriteFrame encodes f to w: 16-byte header followed by the payload.
func WriteFrame(w io.Writer, f *Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("wire: %v payload %d exceeds limit %d", f.Kind, len(f.Payload), MaxPayload)
	}
	var hdr [headerLen]byte
	hdr[0] = Magic
	hdr[1] = Version
	hdr[2] = uint8(f.Kind)
	hdr[3] = 0
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(f.Dev))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(f.Step))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame decodes the next frame from r. Truncated input yields
// io.EOF (clean end before a header) or io.ErrUnexpectedEOF; malformed
// headers yield descriptive errors, and version mismatches wrap
// ErrVersion.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err
	}
	if hdr[0] != Magic {
		return nil, fmt.Errorf("wire: bad magic 0x%02x (not a pipebd frame)", hdr[0])
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return nil, truncated(err)
	}
	if hdr[1] != Version {
		return nil, fmt.Errorf("%w: frame version %d, this codec speaks %d", ErrVersion, hdr[1], Version)
	}
	kind := Kind(hdr[2])
	if _, ok := kindNames[kind]; !ok {
		return nil, fmt.Errorf("wire: unknown frame kind %d", hdr[2])
	}
	n := binary.LittleEndian.Uint32(hdr[12:16])
	if n > MaxPayload {
		return nil, fmt.Errorf("wire: %v payload %d exceeds limit %d", kind, n, MaxPayload)
	}
	f := &Frame{
		Kind:    kind,
		Dev:     int32(binary.LittleEndian.Uint32(hdr[4:8])),
		Step:    int32(binary.LittleEndian.Uint32(hdr[8:12])),
		Payload: make([]byte, n),
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return nil, truncated(err)
	}
	return f, nil
}

// truncated normalizes mid-message EOF to io.ErrUnexpectedEOF.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- payload primitives ------------------------------------------------------

// Writer accumulates a little-endian payload.
type Writer struct{ buf []byte }

// NewWriter returns an empty payload writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// I32 appends a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v)) }

// F32 appends a float32 via its IEEE-754 bits (exact).
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }

// F64 appends a float64 via its IEEE-754 bits (exact).
func (w *Writer) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Blob appends a length-prefixed byte slice, bounded by MaxPayload (the
// payloads the cluster nests — encoded frames inside ledger records — can
// far exceed the maxString name bound).
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// I32s appends a count-prefixed int32 slice.
func (w *Writer) I32s(vs []int) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.I32(int32(v))
	}
}

// F64s appends a count-prefixed float64 slice.
func (w *Writer) F64s(vs []float64) {
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.F64(v)
	}
}

// F32s appends a count-prefixed float32 slice, bulk-encoded into a
// pre-sized region like Tensor's data section — ring-all-reduce segments
// are a per-step hot path.
func (w *Writer) F32s(vs []float32) {
	w.U32(uint32(len(vs)))
	off := len(w.buf)
	w.buf = append(w.buf, make([]byte, 4*len(vs))...)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(w.buf[off+4*i:], math.Float32bits(v))
	}
}

// Tensor appends a tensor: rank, dims, then the raw float32 data. The
// data section is bulk-encoded into a pre-sized region — tensor frames
// are the per-step hot path (activations, gradients), so no per-element
// append growth.
func (w *Writer) Tensor(t *tensor.Tensor) {
	shape := t.Shape()
	w.U32(uint32(len(shape)))
	for _, d := range shape {
		w.U32(uint32(d))
	}
	data := t.Data()
	off := len(w.buf)
	w.buf = append(w.buf, make([]byte, 4*len(data))...)
	for i, v := range data {
		binary.LittleEndian.PutUint32(w.buf[off+4*i:], math.Float32bits(v))
	}
}

// Tensors appends a count-prefixed tensor list.
func (w *Writer) Tensors(ts []*tensor.Tensor) {
	w.U32(uint32(len(ts)))
	for _, t := range ts {
		w.Tensor(t)
	}
}

// Reader consumes a little-endian payload. The first decode error sticks:
// every later call returns zero values, and Err reports it, so decoders
// can run straight-line and check once.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader wraps a payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unconsumed bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// Close verifies the payload was consumed exactly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes in payload", len(r.buf)-r.pos)
	}
	return nil
}

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.buf) {
		r.fail("truncated payload: need %d bytes at offset %d of %d: %w", n, r.pos, len(r.buf), io.ErrUnexpectedEOF)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// U8 reads a byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// F32 reads a float32.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// F64 reads a float64.
func (r *Reader) F64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if n > maxString {
		r.fail("string length %d exceeds limit %d", n, maxString)
		return ""
	}
	b := r.take(int(n))
	return string(b)
}

// Blob reads a length-prefixed byte slice (copied, so the result does not
// alias the payload buffer).
func (r *Reader) Blob() []byte {
	n := r.U32()
	if n > MaxPayload {
		r.fail("blob length %d exceeds limit %d", n, MaxPayload)
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// count validates a collection count against the bytes that could
// plausibly back it (at least minElem bytes per element must remain).
func (r *Reader) count(n uint32, minElem int) int {
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(minElem) > int64(r.Remaining()) {
		r.fail("count %d exceeds remaining payload (%d bytes)", n, r.Remaining())
		return 0
	}
	return int(n)
}

// I32s reads a count-prefixed int32 slice into ints.
func (r *Reader) I32s() []int {
	n := r.count(r.U32(), 4)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.I32())
	}
	return out
}

// F32s reads a count-prefixed float32 slice with one bounds check and a
// bulk decode loop.
func (r *Reader) F32s() []float32 {
	n := r.count(r.U32(), 4)
	if n == 0 {
		return nil
	}
	raw := r.take(n * 4)
	if raw == nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// F64s reads a count-prefixed float64 slice.
func (r *Reader) F64s() []float64 {
	n := r.count(r.U32(), 8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.F64()
	}
	return out
}

// Tensor reads a tensor, validating rank and dimensions: rank must be in
// [1, 8] and every dimension positive (the engine has no zero-dimension
// tensors, and tensor.New would panic on one — the codec turns that into
// an error instead).
func (r *Reader) Tensor() *tensor.Tensor {
	rank := r.U32()
	if r.err != nil {
		return nil
	}
	if rank == 0 || rank > maxRank {
		r.fail("tensor rank %d outside [1, %d]", rank, maxRank)
		return nil
	}
	shape := make([]int, rank)
	n := int64(1)
	for i := range shape {
		d := r.U32()
		if d == 0 {
			r.fail("tensor has zero dimension in shape %v", shape[:i+1])
			return nil
		}
		shape[i] = int(d)
		n *= int64(d)
		if n*4 > int64(MaxPayload) {
			r.fail("tensor of shape %v exceeds payload limit", shape[:i+1])
			return nil
		}
	}
	if int64(r.Remaining()) < n*4 {
		r.fail("truncated tensor: shape %v needs %d bytes, %d remain: %w", shape, n*4, r.Remaining(), io.ErrUnexpectedEOF)
		return nil
	}
	t := tensor.New(shape...)
	data := t.Data()
	// Bulk-decode the data section: one bounds check, then a tight loop.
	raw := r.take(int(n) * 4)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return t
}

// Tensors reads a count-prefixed tensor list.
func (r *Reader) Tensors() []*tensor.Tensor {
	// Each tensor is at least rank + one dim + one element = 12 bytes.
	n := r.count(r.U32(), 12)
	if n == 0 {
		return nil
	}
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = r.Tensor()
		if r.err != nil {
			return nil
		}
	}
	return out
}
