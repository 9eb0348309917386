// Package ledger is the durable-run store of the cluster coordinator: a
// versioned, crash-safe on-disk codec that persists everything a
// restarted coordinator needs to resume a run bit-identically — the
// immutable session setup in a manifest written via atomic rename, and,
// as an append-only record log, what the global restart cut is computed
// from: post-step snapshots, emitted loss rows, barrier releases, and
// repartition cuts. Nothing in flight is logged: a resume rewinds every
// device to the newest step all groups snapshotted and all devices
// accounted for, and everything after it is recomputed.
//
// Crash semantics: every record carries a CRC over its payload, so a
// coordinator killed mid-append leaves at most one torn record at the
// tail. Open tolerates that — it replays the log up to the last complete
// record, truncates the torn tail, and reports how many bytes it dropped —
// while a corrupt or version-skewed manifest is a hard error (the
// manifest is written once, atomically, before any record, so it can
// never be legitimately half-written). Records reuse the wire package's
// payload codec, so every float crosses the disk boundary bit-exactly,
// which the resume path's bit-equivalence guarantee depends on.
package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/tensor"
)

const (
	// Version is the on-disk format version; manifests stamped with any
	// other version are rejected by Open. Version 2 retired the record
	// kinds only per-device surgical replay read (inputs, output shards,
	// reductions, input marks), so a v1 directory fails with ErrVersion
	// rather than replaying a log this code cannot interpret. Version 3
	// follows wire codec v9's Assign body (the manifest embeds one) and
	// retired the group-snapshot record: only rank 0 of a group snapshots,
	// so the dev-snapshot record is the one snapshot record. Version 4
	// follows wire codec v10's Assign body, which lost its session id; the
	// record log is unchanged.
	Version = 4

	// ManifestName and LogName are the two files a ledger directory holds.
	ManifestName = "MANIFEST"
	LogName      = "records.log"

	manifestMagic = "PBDL"
	recMagic      = 0xD1
	recHeaderLen  = 10 // magic, type, payload length u32, payload crc32
)

// ErrVersion is wrapped by Open errors caused by a manifest written by a
// different ledger format version.
var ErrVersion = errors.New("ledger: version mismatch")

// SyncMode selects how aggressively Append pushes records to stable
// storage. The default, SyncNone, hands records to the operating system
// and stops there: that survives process death (page-cache contents
// outlive a SIGKILL) but not power loss. The synced tiers close that gap
// at increasing append latency.
type SyncMode int

const (
	// SyncNone never fsyncs the record log (the pre-sync-policy behavior):
	// durable against process death only.
	SyncNone SyncMode = iota
	// SyncInterval fsyncs after every Every-th appended record, and again
	// on Close — bounded-loss durability: a power cut loses at most the
	// records since the last sync point.
	SyncInterval
	// SyncAlways fsyncs after every record: an Append that returned has
	// reached stable storage.
	SyncAlways
)

// SyncPolicy is a ledger's record-log durability tier. The zero value is
// SyncNone.
type SyncPolicy struct {
	Mode SyncMode
	// Every is the record interval for SyncInterval (ignored otherwise);
	// it must be >= 1 in that mode.
	Every int
}

// Validate rejects malformed policies.
func (p SyncPolicy) Validate() error {
	switch p.Mode {
	case SyncNone, SyncAlways:
		return nil
	case SyncInterval:
		if p.Every < 1 {
			return fmt.Errorf("ledger: interval sync needs Every >= 1, got %d", p.Every)
		}
		return nil
	default:
		return fmt.Errorf("ledger: unknown sync mode %d", int(p.Mode))
	}
}

func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return fmt.Sprintf("interval:%d", p.Every)
	default:
		return "none"
	}
}

// ParseSyncPolicy parses the CLI form of a sync policy: "none", "always",
// "interval" (every 64 records), or "interval:N".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch {
	case s == "" || s == "none":
		return SyncPolicy{Mode: SyncNone}, nil
	case s == "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case s == "interval":
		return SyncPolicy{Mode: SyncInterval, Every: 64}, nil
	case len(s) > len("interval:") && s[:len("interval:")] == "interval:":
		var n int
		if _, err := fmt.Sscanf(s[len("interval:"):], "%d", &n); err != nil || n < 1 {
			return SyncPolicy{}, fmt.Errorf("ledger: bad sync interval %q (want interval:N with N >= 1)", s)
		}
		return SyncPolicy{Mode: SyncInterval, Every: n}, nil
	default:
		return SyncPolicy{}, fmt.Errorf("ledger: unknown sync policy %q (want none, interval[:N], or always)", s)
	}
}

// Manifest is the immutable setup of a durable run: the full session
// assignment (plan, model spec, run config including the snapshot policy,
// and the seed parameter snapshot — the Devices field is unused), the
// worker addresses, the training batches, and the worker-loss budget. It
// is everything a fresh process needs to rebuild the coordinator's
// workbench and re-drive the run; Meta is an opaque slot for the caller
// (e.g. CLI options for provenance).
type Manifest struct {
	Assign      wire.Assign
	Addrs       []string
	Batches     []dataset.Batch
	MaxRestarts int
	Meta        string
}

// Type identifies a record's kind in the log. The values are part of the
// on-disk format; 3, 4, 5 and 9 belonged to kinds retired in version 2, 2
// (the group snapshot) to one retired in version 3, and none is ever
// reused.
type Type uint8

const (
	// TypeDevSnapshot is a rank-0 device's post-step restart state (student
	// parameters + optimizer velocities), standing for its whole group.
	TypeDevSnapshot Type = 1
	// TypeLosses is one device's per-block loss row for one step.
	TypeLosses Type = 6
	// TypeBarrier marks a released no-DPU step barrier.
	TypeBarrier Type = 7
	// TypeCheckpoint is a consolidated prefix of the log written by
	// Compact: its payload nests the records that still matter for resume
	// (the snapshots the cut may need, the complete loss trajectory, the
	// newest barrier release) so everything before it can be dropped.
	TypeCheckpoint Type = 8
	// TypeRepartition marks a planned runtime placement change: the run
	// was cut after Step and continued on the plan encoded in Payload
	// (wire.EncodePlan). Records before it describe state under the
	// manifest's (or the previous repartition's) plan; records after it
	// describe state under the new plan, so resume replays the log in
	// plan generations.
	TypeRepartition Type = 10
)

var typeNames = map[Type]string{
	TypeDevSnapshot: "dev-snapshot", TypeLosses: "losses", TypeBarrier: "barrier",
	TypeCheckpoint: "checkpoint", TypeRepartition: "repartition",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Record is one logged mutation of the coordinator's recovery state. The
// populated fields depend on Type; the rest are zero.
type Record struct {
	Type Type
	Dev  int // TypeDevSnapshot, TypeLosses
	Step int // every type but TypeCheckpoint

	Params   []*tensor.Tensor // TypeDevSnapshot: student parameters
	Velocity []*tensor.Tensor // TypeDevSnapshot: optimizer velocities
	Payload  []byte           // TypeRepartition: the encoded plan
	Losses   []float64        // TypeLosses
	Children []*Record        // TypeCheckpoint: the consolidated records
}

// DevSnapshot builds a snapshot record.
func DevSnapshot(dev, step int, params, velocity []*tensor.Tensor) *Record {
	return &Record{Type: TypeDevSnapshot, Dev: dev, Step: step, Params: params, Velocity: velocity}
}

// Losses builds a loss-row record.
func Losses(dev, step int, vals []float64) *Record {
	return &Record{Type: TypeLosses, Dev: dev, Step: step, Losses: vals}
}

// Barrier builds a barrier-release record.
func Barrier(step int) *Record {
	return &Record{Type: TypeBarrier, Step: step}
}

// Repartition builds a planned-repartition record: the run was cut after
// step and continues on the plan encoded in payload (wire.EncodePlan).
func Repartition(step int, payload []byte) *Record {
	return &Record{Type: TypeRepartition, Step: step, Payload: payload}
}

func (rec *Record) encode() ([]byte, error) {
	w := wire.NewWriter()
	switch rec.Type {
	case TypeDevSnapshot:
		w.I32(int32(rec.Dev))
		w.I32(int32(rec.Step))
		w.Tensors(rec.Params)
		w.Tensors(rec.Velocity)
	case TypeLosses:
		w.I32(int32(rec.Dev))
		w.I32(int32(rec.Step))
		w.F64s(rec.Losses)
	case TypeBarrier:
		w.I32(int32(rec.Step))
	case TypeCheckpoint:
		w.U32(uint32(len(rec.Children)))
		for _, c := range rec.Children {
			if c.Type == TypeCheckpoint {
				return nil, fmt.Errorf("ledger: checkpoint records cannot nest")
			}
			payload, err := c.encode()
			if err != nil {
				return nil, err
			}
			w.Blob(frameRecord(c.Type, payload))
		}
	case TypeRepartition:
		w.I32(int32(rec.Step))
		w.Blob(rec.Payload)
	default:
		return nil, fmt.Errorf("ledger: cannot encode record %v", rec.Type)
	}
	if len(w.Bytes()) > wire.MaxPayload {
		return nil, fmt.Errorf("ledger: %v record payload %d exceeds limit %d", rec.Type, len(w.Bytes()), wire.MaxPayload)
	}
	return w.Bytes(), nil
}

func decodeRecord(t Type, payload []byte) (*Record, error) {
	r := wire.NewReader(payload)
	rec := &Record{Type: t}
	switch t {
	case TypeDevSnapshot:
		rec.Dev = int(r.I32())
		rec.Step = int(r.I32())
		rec.Params = r.Tensors()
		rec.Velocity = r.Tensors()
	case TypeLosses:
		rec.Dev = int(r.I32())
		rec.Step = int(r.I32())
		rec.Losses = r.F64s()
	case TypeBarrier:
		rec.Step = int(r.I32())
	case TypeCheckpoint:
		n := r.U32()
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			blob := r.Blob()
			if r.Err() != nil {
				break
			}
			child, used := parseRecord(blob)
			if child == nil || used != len(blob) {
				return nil, fmt.Errorf("ledger: corrupt checkpoint child %d", i)
			}
			if child.Type == TypeCheckpoint {
				return nil, fmt.Errorf("ledger: checkpoint records cannot nest")
			}
			rec.Children = append(rec.Children, child)
		}
	case TypeRepartition:
		rec.Step = int(r.I32())
		rec.Payload = r.Blob()
	default:
		return nil, fmt.Errorf("ledger: unknown record %v", t)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if t == TypeDevSnapshot && len(rec.Params) != len(rec.Velocity) {
		return nil, fmt.Errorf("ledger: %v record has %d params but %d velocities", t, len(rec.Params), len(rec.Velocity))
	}
	return rec, nil
}

// Replay is the result of reading a ledger's record log.
type Replay struct {
	// Records holds every complete record, in append order.
	Records []*Record
	// TornBytes counts the trailing bytes Open dropped because they did
	// not form a complete, checksummed record — the residue of a
	// coordinator killed mid-append. 0 for a cleanly written log.
	TornBytes int
}

// Ledger is an open durable-run store: the manifest is on disk and the
// record log is positioned for appending. Append is safe for concurrent
// use; the coordinator serializes appends under its session lock anyway
// so record order matches mutation order.
type Ledger struct {
	dir string

	mu       sync.Mutex
	f        *os.File
	recs     int64 // records appended through this handle
	bytes    int64 // framed bytes appended through this handle
	sync     SyncPolicy
	unsynced int64 // records written since the last fsync
}

// SetSync installs the record-log durability tier for subsequent Appends.
// The default is SyncNone. Raising the tier mid-stream is safe: the next
// qualifying Append (or Close) also covers every record written before
// the change.
func (l *Ledger) SetSync(p SyncPolicy) error {
	if err := p.Validate(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sync = p
	return nil
}

// Create initializes dir as a fresh ledger: it writes the manifest via
// write-to-temp + atomic rename and creates an empty record log. A
// directory that already holds a manifest is rejected — resuming an
// existing run must go through Open, and two runs must never interleave
// records in one log.
func Create(dir string, m *Manifest) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	// Take the flock on the record log before touching the manifest:
	// of two racing Creates (or a Create racing a live Open) the loser
	// must fail here, before it can rename its manifest over the
	// winner's or truncate the winner's live log.
	f, err := os.OpenFile(filepath.Join(dir, LogName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := lockFile(f, dir); err != nil {
		f.Close()
		return nil, err
	}
	manifestPath := filepath.Join(dir, ManifestName)
	if _, err := os.Stat(manifestPath); err == nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %s already holds a run manifest (resume it instead of starting a new run)", dir)
	}
	blob, err := encodeManifest(m)
	if err != nil {
		f.Close()
		return nil, err
	}
	tmp := manifestPath + ".tmp"
	if err := writeFileSynced(tmp, blob); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if err := os.Rename(tmp, manifestPath); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	// Make the rename itself durable. The manifest is written exactly once
	// per run, so this pair of syncs is a fixed cost, not an append-path
	// one — without it a power cut could leave a directory whose log has
	// synced records but whose manifest entry never reached the disk.
	syncDir(dir)
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &Ledger{dir: dir, f: f}, nil
}

// Open loads an existing ledger: it decodes and validates the manifest
// (corrupt or version-skewed manifests are errors), replays the record
// log up to the last complete record, truncates any torn tail so later
// appends extend a consistent log, and returns the ledger positioned for
// appending.
//
// Open takes a non-blocking advisory flock on the record log (released
// by Close, or by the kernel when the process dies): a second Open of
// the same directory while the first ledger is live fails fast, so two
// concurrent resumes can never interleave records from divergent
// states. Advisory locking — not an O_EXCL lock file — survives the
// very SIGKILL resume exists to handle without going stale. The lock is
// taken before the torn-tail truncation so a concurrent writer's live
// tail is never clipped.
func Open(dir string) (*Ledger, *Manifest, *Replay, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ledger: reading manifest: %w", err)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		return nil, nil, nil, err
	}
	logPath := filepath.Join(dir, LogName)
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("ledger: %w", err)
	}
	if err := lockFile(f, dir); err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	logRaw, err := os.ReadFile(logPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		f.Close()
		return nil, nil, nil, fmt.Errorf("ledger: reading record log: %w", err)
	}
	replay, good := replayLog(logRaw)
	if replay.TornBytes > 0 {
		if err := os.Truncate(logPath, int64(good)); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("ledger: truncating torn tail: %w", err)
		}
	}
	return &Ledger{dir: dir, f: f}, m, replay, nil
}

// writeFileSynced writes data to path and fsyncs it before closing, so
// the bytes are on stable storage before the caller renames the file
// into place.
func writeFileSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
// Best-effort: some filesystems reject directory fsync, and the weaker
// pre-sync-policy durability (process death) never needed it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// replayLog parses records until the first incomplete or corrupt one and
// returns them with the offset of the last complete record's end.
func replayLog(raw []byte) (*Replay, int) {
	rep := &Replay{}
	off := 0
	for {
		rec, n := parseRecord(raw[off:])
		if rec == nil {
			break
		}
		rep.Records = append(rep.Records, rec)
		off += n
	}
	rep.TornBytes = len(raw) - off
	return rep, off
}

// frameRecord wraps an encoded record payload in the log framing:
// magic, type, length, checksum.
func frameRecord(t Type, payload []byte) []byte {
	buf := make([]byte, recHeaderLen+len(payload))
	buf[0] = recMagic
	buf[1] = uint8(t)
	binary.LittleEndian.PutUint32(buf[2:6], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[6:10], crc32.ChecksumIEEE(payload))
	copy(buf[recHeaderLen:], payload)
	return buf
}

// parseRecord decodes one record from the head of raw, returning nil when
// raw does not start with a complete, checksummed, decodable record.
func parseRecord(raw []byte) (*Record, int) {
	if len(raw) < recHeaderLen || raw[0] != recMagic {
		return nil, 0
	}
	t := Type(raw[1])
	n := binary.LittleEndian.Uint32(raw[2:6])
	if n > wire.MaxPayload || int(n) > len(raw)-recHeaderLen {
		return nil, 0
	}
	payload := raw[recHeaderLen : recHeaderLen+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[6:10]) {
		return nil, 0
	}
	rec, err := decodeRecord(t, payload)
	if err != nil {
		return nil, 0
	}
	return rec, recHeaderLen + int(n)
}

// Append writes one record to the log. The write reaches the operating
// system before Append returns, so a coordinator killed any time after
// has the record (process death does not lose page-cache contents). How
// far past the page cache the record travels is the SyncPolicy's call:
// under SyncAlways it is on stable storage when Append returns, under
// SyncInterval within Every records of it, and under SyncNone (the
// default) a power cut may still lose it — the torn-tail truncation in
// Open then recovers the longest consistent prefix either way, because
// fsync ordering guarantees no record is durable before its
// predecessors.
func (l *Ledger) Append(rec *Record) error {
	payload, err := rec.encode()
	if err != nil {
		return err
	}
	buf := frameRecord(rec.Type, payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("ledger: append after close")
	}
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("ledger: appending %v record: %w", rec.Type, err)
	}
	l.recs++
	l.bytes += int64(len(buf))
	l.unsynced++
	switch l.sync.Mode {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return fmt.Errorf("ledger: syncing %v record: %w", rec.Type, err)
		}
	case SyncInterval:
		if l.unsynced >= int64(l.sync.Every) {
			if err := l.syncLocked(); err != nil {
				return fmt.Errorf("ledger: syncing %v record: %w", rec.Type, err)
			}
		}
	}
	return nil
}

// syncLocked flushes the record log to stable storage; callers hold l.mu.
func (l *Ledger) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.unsynced = 0
	return nil
}

// Written reports how many records, and how many framed bytes, this
// handle has appended — not the on-disk size of a log it resumed.
func (l *Ledger) Written() (records int64, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs, l.bytes
}

// Close releases the record log, first flushing any unsynced records to
// stable storage when a synced tier is active. Appends after Close fail.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var syncErr error
	if l.sync.Mode != SyncNone && l.unsynced > 0 {
		syncErr = l.syncLocked()
	}
	err := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return syncErr
	}
	return err
}

// --- manifest codec ----------------------------------------------------------

// encodeManifest lays out: magic, version u32, payload length u32,
// payload crc32, payload.
func encodeManifest(m *Manifest) ([]byte, error) {
	w := wire.NewWriter()
	w.Blob(wire.EncodeAssign(&m.Assign).Payload)
	w.U32(uint32(len(m.Addrs)))
	for _, a := range m.Addrs {
		w.String(a)
	}
	w.I32(int32(m.MaxRestarts))
	w.U32(uint32(len(m.Batches)))
	for _, b := range m.Batches {
		w.Blob(wire.EncodeBatch(b))
	}
	w.String(m.Meta)
	payload := w.Bytes()
	if len(payload) > wire.MaxPayload {
		return nil, fmt.Errorf("ledger: manifest payload %d exceeds limit %d", len(payload), wire.MaxPayload)
	}
	hdr := make([]byte, 16)
	copy(hdr, manifestMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(payload))
	return append(hdr, payload...), nil
}

func decodeManifest(raw []byte) (*Manifest, error) {
	if len(raw) < 16 {
		return nil, fmt.Errorf("ledger: manifest truncated to %d bytes", len(raw))
	}
	if string(raw[:4]) != manifestMagic {
		return nil, fmt.Errorf("ledger: bad manifest magic %q (not a pipebd ledger)", raw[:4])
	}
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != Version {
		return nil, fmt.Errorf("%w: manifest version %d, this ledger speaks %d", ErrVersion, v, Version)
	}
	n := binary.LittleEndian.Uint32(raw[8:12])
	if int64(n) != int64(len(raw)-16) {
		return nil, fmt.Errorf("ledger: manifest payload length %d, file holds %d", n, len(raw)-16)
	}
	payload := raw[16:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[12:16]) {
		return nil, fmt.Errorf("ledger: manifest checksum mismatch (corrupt manifest)")
	}
	r := wire.NewReader(payload)
	m := &Manifest{}
	assignBlob := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	assign, err := wire.DecodeAssign(&wire.Frame{Kind: wire.KindAssign, Payload: assignBlob})
	if err != nil {
		return nil, fmt.Errorf("ledger: manifest assignment: %w", err)
	}
	m.Assign = *assign
	nAddrs := r.U32()
	for i := uint32(0); i < nAddrs && r.Err() == nil; i++ {
		m.Addrs = append(m.Addrs, r.String())
	}
	m.MaxRestarts = int(r.I32())
	nBatches := r.U32()
	for i := uint32(0); i < nBatches && r.Err() == nil; i++ {
		blob := r.Blob()
		if r.Err() != nil {
			break
		}
		b, err := wire.DecodeBatch(blob)
		if err != nil {
			return nil, fmt.Errorf("ledger: manifest batch %d: %w", i, err)
		}
		m.Batches = append(m.Batches, b)
	}
	m.Meta = r.String()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}
