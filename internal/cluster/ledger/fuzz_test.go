package ledger

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// FuzzReplayLog drives the record-log parser with arbitrary bytes, from
// seeds of sampleManifest's run (snapshots of a slab per block):
// replay must never panic, must stop at the first incomplete record, and
// whatever it accepted must re-encode to bytes the parser accepts again
// (the round-trip property on surviving records). A snapshot it accepted
// by its tensor headers must decode with wire.Reader.State. Every accepted
// record is then applied to the account of sampleManifest's run, which
// may refuse it but must never panic.
func FuzzReplayLog(f *testing.F) {
	// Clipped: every seed below that extends log gets an array of its own.
	log := slices.Clip(frameRecords(f, sampleRecords(rand.New(rand.NewSource(21)))...))
	f.Add(log)
	f.Add(log[:len(log)-3])         // torn tail
	f.Add([]byte{recMagic, 0xFF})   // unknown type
	f.Add([]byte{})                 // empty log
	f.Add([]byte{0x00, 0x01, 0x02}) // garbage
	for _, t := range retiredTypes {
		// A well-framed record of a retired kind, ahead of a valid one:
		// replay must stop at it, not decode or skip it.
		f.Add(append(frameRecord(t, []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}), log...))
	}
	// A repartition onto a plan with a block the run does not have.
	f.Add(frameRecords(f, Repartition(1, wire.EncodePlan(sched.Plan{Name: "misfit",
		Groups: []sched.Group{{Devices: []int{0}, Blocks: []int{0, 1, 2, 9}}}}))))
	// Snapshots replay reads — the header walk accepts them — and the
	// account refuses: a second slab one element short of its block's,
	// and a second slab of rank 2.
	f.Add(append(log, frameRecords(f, DevSnapshot(2, 0, []*tensor.Tensor{tensor.New(slabLens[2]), tensor.New(slabLens[3] - 1)},
		[]*tensor.Tensor{tensor.New(slabLens[2]), tensor.New(slabLens[3] - 1)}))...))
	f.Add(append(log, frameRecords(f, DevSnapshot(2, 0, []*tensor.Tensor{tensor.New(slabLens[2]), tensor.New(1, slabLens[3])},
		[]*tensor.Tensor{tensor.New(slabLens[2]), tensor.New(1, slabLens[3])}))...))
	// Snapshots replay stops at, as Reader.State refuses them: a velocity
	// slab one element short, a state cut short, and a state without its
	// velocity list.
	values := []*tensor.Tensor{tensor.New(slabLens[2]), tensor.New(slabLens[3])}
	state := func(lists ...[]*tensor.Tensor) []byte {
		var w wire.Writer
		for _, l := range lists {
			w.Tensors(l)
		}
		return w.Bytes()
	}
	good := state(values, values)
	for _, enc := range [][]byte{
		state(values, []*tensor.Tensor{tensor.New(slabLens[2]), tensor.New(slabLens[3] - 1)}),
		good[:len(good)-3],
		state(values),
	} {
		f.Add(append(log, frameRecords(f, &Record{Type: TypeDevSnapshot, Dev: 2, State: enc})...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, good := replayLog(data)
		if good > len(data) || good < 0 {
			t.Fatalf("replay consumed %d of %d bytes", good, len(data))
		}
		if rep.TornBytes != len(data)-good {
			t.Fatalf("torn accounting: %d vs %d", rep.TornBytes, len(data)-good)
		}
		// Re-encode every accepted record; the result must replay cleanly
		// to the same count.
		var w wire.Writer
		for _, rec := range rep.Records {
			if err := appendRecord(&w, rec); err != nil {
				t.Fatalf("re-encode of replayed %v record failed: %v", rec.Type, err)
			}
		}
		rep2, _ := replayLog(w.Bytes())
		if len(rep2.Records) != len(rep.Records) || rep2.TornBytes != 0 {
			t.Fatalf("round trip: %d records (%d torn), want %d clean",
				len(rep2.Records), rep2.TornBytes, len(rep.Records))
		}
		for _, rec := range rep.Records {
			for _, r := range append([]*Record{rec}, rec.Children...) {
				if r.Type != TypeDevSnapshot {
					continue
				}
				st := wire.NewReader(r.State)
				st.State()
				if err := st.Close(); err != nil {
					t.Fatalf("replay accepted a snapshot that does not decode: %v", err)
				}
			}
		}
		acct, err := NewAccount(&sampleManifest().Assign)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range rep.Records {
			acct.Apply(rec)
		}
		acct.Rewind()
	})
}

// frameRecords frames recs as the log holds them.
func frameRecords(tb testing.TB, recs ...*Record) []byte {
	tb.Helper()
	var w wire.Writer
	for _, rec := range recs {
		if err := appendRecord(&w, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return w.Bytes()
}

// frameRecord frames a payload of type t as the log holds a record,
// whether or not the payload decodes.
func frameRecord(t Type, payload []byte) []byte {
	buf := []byte{recMagic, uint8(t)}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// retiredTypes are the record kinds later versions dropped: input, output,
// reduction and marks (version 2) and the group snapshot (version 3).
var retiredTypes = []Type{3, 4, 5, 9, 2}

// TestRetiredRecordTypesStopReplay: bytes of a retired kind — however
// well framed and checksummed — decode to an error and end the replay
// there, exactly like any other unknown type; they never panic and are
// never skipped over.
func TestRetiredRecordTypesStopReplay(t *testing.T) {
	valid := frameRecord(TypeBarrier, []byte{3, 0, 0, 0})
	for _, typ := range retiredTypes {
		payload := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
		if _, err := decodeRecord(typ, payload); err == nil {
			t.Fatalf("retired record type %d still decodes", typ)
		}
		raw := append(append([]byte(nil), valid...), frameRecord(typ, payload)...)
		raw = append(raw, valid...)
		rep, good := replayLog(raw)
		if len(rep.Records) != 1 || good != len(valid) || rep.TornBytes != len(raw)-len(valid) {
			t.Fatalf("retired type %d: replayed %d records through byte %d (%d torn), want 1 record and a stop at %d",
				typ, len(rep.Records), good, rep.TornBytes, len(valid))
		}
	}
}

// FuzzOpenManifest drives the manifest decoder with arbitrary bytes: it
// must return an error or a manifest, never panic — a decoded manifest
// must survive an encode/decode round trip, and its data recipe, the only
// copy of the run's batches, must evaluate when it validates and fail
// with an error when it does not.
func FuzzOpenManifest(f *testing.F) {
	good, err := encodeManifest(sampleManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("PBDL"))
	f.Add([]byte{})
	bad := sampleManifest()
	bad.Assign.Run.Data.Classes = 0 // decodes, but no generator can evaluate it
	badRaw, err := encodeManifest(bad)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(badRaw)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		re, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("re-encode of decoded manifest failed: %v", err)
		}
		if _, err := decodeManifest(re); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		ds := m.Assign.Run.Data
		if err := ds.Validate(); err != nil {
			if _, err := ds.Batches(); err == nil {
				t.Fatalf("recipe %+v fails validation but evaluates", ds)
			}
		} else if recipeValues(ds) <= 1<<16 {
			if _, err := ds.Batches(); err != nil {
				t.Fatalf("recipe %+v validates but does not evaluate: %v", ds, err)
			}
		}
	})
}

// recipeValues is how many float32 values a validated recipe generates.
func recipeValues(ds wire.DataSpec) int {
	if ds.Kind == "tokens" {
		return ds.N * ds.L
	}
	return ds.N * ds.C * ds.H * ds.W
}

// TestOpenArbitraryLogNeverErrors is the deterministic cousin of the
// fuzz targets: a valid manifest next to a garbage log must open (replay
// stops at the garbage) so a resume can always start from the last
// complete record.
func TestOpenArbitraryLogNeverErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, sampleManifest())
	led.Close()
	if err := os.WriteFile(filepath.Join(dir, LogName), []byte("not a log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	led2, _, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with garbage log: %v", err)
	}
	led2.Close()
	if len(rep.Records) != 0 || rep.TornBytes == 0 {
		t.Fatalf("garbage log replayed as %d records, %d torn", len(rep.Records), rep.TornBytes)
	}
}
