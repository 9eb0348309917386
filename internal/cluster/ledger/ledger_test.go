package ledger

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

func sampleManifest() *Manifest {
	rng := rand.New(rand.NewSource(11))
	return &Manifest{
		Assign: wire.Assign{
			Plan: sched.Plan{Name: "hybrid", Groups: []sched.Group{
				{Devices: []int{0, 1}, Blocks: []int{0, 1}},
				{Devices: []int{2}, Blocks: []int{2, 3}},
			}},
			Spec: wire.ModelSpec{Name: "tiny", Seed: 42, Blocks: 4, Channels: 6, Height: 8, Width: 8},
			Run: wire.RunConfig{DPU: true, LR: 0.05, Momentum: 0.9, Steps: 4,
				Snap: wire.SnapshotPolicy{Interval: 2}},
			Snapshot: wire.Snapshot{
				Teacher: [][]*tensor.Tensor{{tensor.Rand(rng, -1, 1, 2, 2)}, {}, {}, {}},
				Student: [][]*tensor.Tensor{{tensor.Rand(rng, -1, 1, 3)}, {}, {}, {tensor.Rand(rng, -1, 1, 2)}},
			},
		},
		Addrs:       []string{"127.0.0.1:7710", "127.0.0.1:7711"},
		MaxRestarts: 2,
		Batches: []dataset.Batch{
			{X: tensor.Rand(rng, -1, 1, 4, 3, 2, 2), Labels: []int{1, 0, 3, 2}},
			{X: tensor.Rand(rng, -1, 1, 4, 3, 2, 2)},
		},
		Meta: "cli: -cluster-plan hybrid -cluster-steps 4",
	}
}

func sampleRecords(rng *rand.Rand) []*Record {
	return []*Record{
		Losses(0, 0, []float64{0.5, 0.125}),
		DevSnapshot(2, 0,
			[]*tensor.Tensor{tensor.Rand(rng, -1, 1, 3), tensor.Rand(rng, -1, 1, 2, 2)},
			[]*tensor.Tensor{tensor.Rand(rng, -1, 1, 3), tensor.New(2, 2)}),
		DevSnapshot(0, 1,
			[]*tensor.Tensor{tensor.Rand(rng, -1, 1, 4)},
			[]*tensor.Tensor{tensor.Rand(rng, -1, 1, 4)}),
		Losses(1, 1, []float64{0.25, -1.5}),
		Barrier(1),
		Repartition(1, []byte{9, 9}),
	}
}

func mustCreate(t *testing.T, dir string, m *Manifest) *Ledger {
	t.Helper()
	led, err := Create(dir, m)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return led
}

// TestManifestAndRecordRoundTrip writes a full ledger and reopens it: the
// manifest must decode field-for-field (tensors bit-exactly) and every
// record must replay in order with its contents intact.
func TestManifestAndRecordRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	m := sampleManifest()
	led := mustCreate(t, dir, m)
	recs := sampleRecords(rand.New(rand.NewSource(12)))
	for _, rec := range recs {
		if err := led.Append(rec); err != nil {
			t.Fatalf("Append(%v): %v", rec.Type, err)
		}
	}
	if err := led.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	led2, got, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer led2.Close()
	if rep.TornBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", rep.TornBytes)
	}
	if got.Assign.Plan.Name != m.Assign.Plan.Name || got.Assign.Spec != m.Assign.Spec || got.Assign.Run != m.Assign.Run {
		t.Fatalf("manifest assign mismatch: %+v", got.Assign)
	}
	if len(got.Addrs) != 2 || got.Addrs[1] != m.Addrs[1] || got.MaxRestarts != 2 || got.Meta != m.Meta {
		t.Fatalf("manifest fields mismatch: %+v", got)
	}
	if len(got.Batches) != 2 || !got.Batches[0].X.Equal(m.Batches[0].X) || len(got.Batches[0].Labels) != 4 {
		t.Fatalf("manifest batches mismatch")
	}
	if !got.Assign.Snapshot.Student[0][0].Equal(m.Assign.Snapshot.Student[0][0]) {
		t.Fatal("seed snapshot not bit-identical after round trip")
	}
	if len(rep.Records) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(rep.Records), len(recs))
	}
	for i, want := range recs {
		r := rep.Records[i]
		if r.Type != want.Type || r.Dev != want.Dev || r.Step != want.Step {
			t.Fatalf("record %d header: %+v vs %+v", i, r, want)
		}
		if string(r.Payload) != string(want.Payload) {
			t.Fatalf("record %d payload differs", i)
		}
		for pi := range want.Params {
			if !r.Params[pi].Equal(want.Params[pi]) || !r.Velocity[pi].Equal(want.Velocity[pi]) {
				t.Fatalf("record %d tensor %d not bit-identical", i, pi)
			}
		}
		for li := range want.Losses {
			if r.Losses[li] != want.Losses[li] {
				t.Fatalf("record %d loss %d differs", i, li)
			}
		}
	}
}

// TestTornTailRecoversLastCompleteRecord truncates the log at every byte
// offset: Open must never error or panic, must replay exactly the records
// whose bytes fully survived, and must leave the file ready for clean
// appends (the torn tail physically removed).
func TestTornTailRecoversLastCompleteRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, sampleManifest())
	recs := sampleRecords(rand.New(rand.NewSource(13)))
	var ends []int // log offset after each record
	logPath := filepath.Join(dir, LogName)
	for _, rec := range recs {
		if err := led.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(fi.Size()))
	}
	led.Close()
	full, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		wantRecs := 0
		for _, e := range ends {
			if e <= cut {
				wantRecs++
			}
		}
		sub := filepath.Join(t.TempDir(), "cut")
		led2 := mustCreate(t, sub, sampleManifest())
		led2.Close()
		if err := os.WriteFile(filepath.Join(sub, LogName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		led3, _, rep, err := Open(sub)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if len(rep.Records) != wantRecs {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(rep.Records), wantRecs)
		}
		// Appending after a torn open must extend a consistent log.
		if err := led3.Append(Barrier(7)); err != nil {
			t.Fatalf("cut %d: append after torn open: %v", cut, err)
		}
		led3.Close()
		_, _, rep2, err := Open(sub)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(rep2.Records) != wantRecs+1 || rep2.TornBytes != 0 {
			t.Fatalf("cut %d: reopen replayed %d records (%d torn bytes), want %d clean",
				cut, len(rep2.Records), rep2.TornBytes, wantRecs+1)
		}
		if last := rep2.Records[len(rep2.Records)-1]; last.Type != TypeBarrier || last.Step != 7 {
			t.Fatalf("cut %d: appended record did not survive reopen: %+v", cut, last)
		}
	}
}

// TestMidLogCorruptionStopsReplay flips a byte inside an early record:
// replay must stop before the corrupt record (never decode garbage) and
// report the rest of the log as torn.
func TestMidLogCorruptionStopsReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, sampleManifest())
	for _, rec := range sampleRecords(rand.New(rand.NewSource(14))) {
		if err := led.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	led.Close()
	logPath := filepath.Join(dir, LogName)
	raw, _ := os.ReadFile(logPath)
	raw[recHeaderLen+2] ^= 0xFF // corrupt the first record's payload
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	led2, _, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	led2.Close()
	if len(rep.Records) != 0 {
		t.Fatalf("corrupt first record still replayed %d records", len(rep.Records))
	}
	if rep.TornBytes == 0 {
		t.Fatal("corruption not reported as torn bytes")
	}
}

// TestManifestErrors: a corrupt, truncated, version-skewed, or missing
// manifest must be a hard error (never a silent partial resume) and must
// never panic.
func TestManifestErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, sampleManifest())
	led.Close()
	path := filepath.Join(dir, ManifestName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	reset := func(b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustFail := func(label, want string) {
		t.Helper()
		_, _, _, err := Open(dir)
		if err == nil {
			t.Fatalf("%s: Open succeeded", label)
		}
		if want != "" && !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %q does not mention %q", label, err, want)
		}
	}

	// Version skew, in both directions: a newer format, the v1 and v2
	// formats whose record logs held kinds this version retired, and v3,
	// whose manifest embeds an Assign body this codec no longer reads.
	for _, v := range []byte{Version + 1, 1, 2, 3} {
		skew := append([]byte(nil), good...)
		skew[4] = v
		reset(skew)
		mustFail("version skew", "version")
		if _, _, _, err := Open(dir); !errors.Is(err, ErrVersion) {
			t.Fatalf("manifest version %d: Open error %v is not ErrVersion", v, err)
		}
	}

	// Flipped payload byte: checksum mismatch.
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xFF
	reset(corrupt)
	mustFail("corrupt payload", "checksum")

	// Bad magic.
	magic := append([]byte(nil), good...)
	magic[0] = 'X'
	reset(magic)
	mustFail("bad magic", "magic")

	// Every truncation errors, none panics.
	for cut := 0; cut < len(good); cut += 13 {
		reset(good[:cut])
		mustFail("truncated", "")
	}

	// Missing manifest entirely.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	mustFail("missing manifest", "manifest")

	// Missing directory.
	if _, _, _, err := Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of absent directory succeeded")
	}
}

// TestCreateRejectsExistingRun: Create must refuse a directory that
// already holds a manifest so two coordinators never interleave one log.
func TestCreateRejectsExistingRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, sampleManifest())
	led.Close()
	if _, err := Create(dir, sampleManifest()); err == nil {
		t.Fatal("Create over an existing run succeeded")
	}
}

// TestAppendAfterCloseFails: the ledger must not silently drop records
// once released.
func TestAppendAfterCloseFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, sampleManifest())
	led.Close()
	if err := led.Append(Barrier(0)); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestSyncPolicyParse pins the CLI grammar of -fsync.
func TestSyncPolicyParse(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		err  bool
	}{
		{"", SyncPolicy{Mode: SyncNone}, false},
		{"none", SyncPolicy{Mode: SyncNone}, false},
		{"always", SyncPolicy{Mode: SyncAlways}, false},
		{"interval", SyncPolicy{Mode: SyncInterval, Every: 64}, false},
		{"interval:3", SyncPolicy{Mode: SyncInterval, Every: 3}, false},
		{"interval:0", SyncPolicy{}, true},
		{"interval:-2", SyncPolicy{}, true},
		{"interval:x", SyncPolicy{}, true},
		{"sometimes", SyncPolicy{}, true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err != nil) != c.err {
			t.Fatalf("ParseSyncPolicy(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("ParseSyncPolicy(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	if err := (SyncPolicy{Mode: SyncInterval}).Validate(); err == nil {
		t.Fatal("interval policy without Every validated")
	}
	if err := (SyncPolicy{Mode: SyncMode(9)}).Validate(); err == nil {
		t.Fatal("unknown mode validated")
	}
	if s := (SyncPolicy{Mode: SyncInterval, Every: 8}).String(); s != "interval:8" {
		t.Fatalf("String = %q", s)
	}
}

// TestSetSyncRejectsInvalid pins SetSync validation.
func TestSetSyncRejectsInvalid(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	led := mustCreate(t, dir, sampleManifest())
	defer led.Close()
	if err := led.SetSync(SyncPolicy{Mode: SyncInterval, Every: 0}); err == nil {
		t.Fatal("invalid policy accepted")
	}
	if err := led.SetSync(SyncPolicy{Mode: SyncAlways}); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
}

// TestTornTailRecoversOnSyncedLogs re-runs the byte-level torn-tail sweep
// over logs written under each synced durability tier: fsync must not
// change the on-disk framing, so a tail torn by power loss (simulated by
// truncating at every offset) still recovers the longest consistent
// prefix and leaves the log appendable.
func TestTornTailRecoversOnSyncedLogs(t *testing.T) {
	for _, policy := range []SyncPolicy{
		{Mode: SyncAlways},
		{Mode: SyncInterval, Every: 2},
	} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			led := mustCreate(t, dir, sampleManifest())
			if err := led.SetSync(policy); err != nil {
				t.Fatal(err)
			}
			recs := sampleRecords(rand.New(rand.NewSource(17)))
			var ends []int
			logPath := filepath.Join(dir, LogName)
			for _, rec := range recs {
				if err := led.Append(rec); err != nil {
					t.Fatalf("Append: %v", err)
				}
				fi, err := os.Stat(logPath)
				if err != nil {
					t.Fatal(err)
				}
				ends = append(ends, int(fi.Size()))
			}
			if err := led.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			full, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut <= len(full); cut++ {
				wantRecs := 0
				for _, e := range ends {
					if e <= cut {
						wantRecs++
					}
				}
				sub := filepath.Join(t.TempDir(), "cut")
				led2 := mustCreate(t, sub, sampleManifest())
				led2.Close()
				if err := os.WriteFile(filepath.Join(sub, LogName), full[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				led3, _, rep, err := Open(sub)
				if err != nil {
					t.Fatalf("cut %d: Open: %v", cut, err)
				}
				if len(rep.Records) != wantRecs {
					t.Fatalf("cut %d: replayed %d records, want %d", cut, len(rep.Records), wantRecs)
				}
				// A resumed ledger keeps appending under the same tier.
				if err := led3.SetSync(policy); err != nil {
					t.Fatal(err)
				}
				if err := led3.Append(Barrier(9)); err != nil {
					t.Fatalf("cut %d: append after torn open: %v", cut, err)
				}
				if err := led3.Close(); err != nil {
					t.Fatalf("cut %d: close: %v", cut, err)
				}
				_, _, rep2, err := Open(sub)
				if err != nil {
					t.Fatalf("cut %d: reopen: %v", cut, err)
				}
				if len(rep2.Records) != wantRecs+1 || rep2.TornBytes != 0 {
					t.Fatalf("cut %d: reopen replayed %d records (%d torn bytes), want %d clean",
						cut, len(rep2.Records), rep2.TornBytes, wantRecs+1)
				}
			}
		})
	}
}

// TestSyncedAppendKeepsLogIdentical proves the sync tiers are invisible
// to the codec: byte-identical logs regardless of policy.
func TestSyncedAppendKeepsLogIdentical(t *testing.T) {
	write := func(policy SyncPolicy) []byte {
		dir := filepath.Join(t.TempDir(), "run")
		led := mustCreate(t, dir, sampleManifest())
		if err := led.SetSync(policy); err != nil {
			t.Fatal(err)
		}
		for _, rec := range sampleRecords(rand.New(rand.NewSource(21))) {
			if err := led.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, LogName))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	none := write(SyncPolicy{Mode: SyncNone})
	always := write(SyncPolicy{Mode: SyncAlways})
	interval := write(SyncPolicy{Mode: SyncInterval, Every: 3})
	if string(none) != string(always) || string(none) != string(interval) {
		t.Fatal("sync policy changed the on-disk log bytes")
	}
}
