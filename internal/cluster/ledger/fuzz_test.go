package ledger

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplayLog drives the record-log parser with arbitrary bytes:
// replay must never panic, must stop at the first incomplete record, and
// whatever it accepted must re-encode to bytes the parser accepts again
// (the round-trip property on surviving records).
func FuzzReplayLog(f *testing.F) {
	seedRecs := sampleRecords(rand.New(rand.NewSource(21)))
	var log []byte
	for _, rec := range seedRecs {
		payload, err := rec.encode()
		if err != nil {
			f.Fatal(err)
		}
		log = append(log, frameRecord(rec.Type, payload)...)
	}
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
		var re []byte
		for _, rec := range rep.Records {
			payload, err := rec.encode()
			if err != nil {
				t.Fatalf("re-encode of replayed %v record failed: %v", rec.Type, err)
			}
			re = append(re, frameRecord(rec.Type, payload)...)
		}
		rep2, _ := replayLog(re)
		if len(rep2.Records) != len(rep.Records) || rep2.TornBytes != 0 {
			t.Fatalf("round trip: %d records (%d torn), want %d clean",
				len(rep2.Records), rep2.TornBytes, len(rep.Records))
		}
	})
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
// must return an error or a manifest, never panic — and a decoded
// manifest must survive an encode/decode round trip.
func FuzzOpenManifest(f *testing.F) {
	good, err := encodeManifest(sampleManifest())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("PBDL"))
	f.Add([]byte{})
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
	})
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
