package ledger

import (
	"fmt"
	"os"
	"path/filepath"

	"pipebd/internal/cluster/wire"
)

// Checkpoint builds a consolidated-prefix record.
func Checkpoint(children []*Record) *Record {
	return &Record{Type: TypeCheckpoint, Children: children}
}

// Compact rewrites a ledger's record log as one checkpoint record per
// plan generation holding only what a resume still needs, closing the
// "log grows unbounded with run length" debt. It replays the log through
// the run's Account, checking every record as a resume would, and within
// a generation keeps:
//
//   - snapshot records at or past the generation's horizon — the step the
//     account restarts from when the generation ends: the cut a
//     repartition record remaps from, or for the last generation the
//     global cut a resume restarts every device from;
//   - every loss row — the final Result needs the complete trajectory, and
//     loss rows are tiny next to the tensor records compaction drops;
//   - the newest barrier release.
//
// The output interleaves one checkpoint per generation with the original
// repartition records, so a resume sees the structure it saw before
// compaction. Earlier checkpoints are flattened, so Compact is idempotent;
// they never straddle a repartition record.
//
// Kept records preserve their original log order, so replaying a
// checkpoint is replaying a valid (sub)history. Compact is an offline
// operation: it must not run concurrently with a live coordinator on the
// same directory (the single-writer flock guards the old log inode during
// the rewrite, not the renamed-in replacement).
func Compact(dir string) error {
	led, man, rep, err := Open(dir)
	if err != nil {
		return err
	}
	defer led.Close()
	acct, err := NewAccount(&man.Assign)
	if err != nil {
		return fmt.Errorf("ledger: %s manifest: %w", dir, err)
	}

	var out, gen []*Record
	endGeneration := func() {
		horizon := acct.Cut()
		var kept []*Record
		var barrier *Record
		for _, rec := range gen {
			switch rec.Type {
			case TypeDevSnapshot:
				if rec.Step >= horizon {
					kept = append(kept, rec)
				}
			case TypeLosses:
				kept = append(kept, rec)
			case TypeBarrier:
				if barrier == nil || rec.Step > barrier.Step {
					barrier = rec
				}
			}
		}
		if barrier != nil {
			kept = append(kept, barrier)
		}
		out = append(out, Checkpoint(kept))
		gen = nil
	}
	for i, rec := range rep.Records {
		if err := acct.Apply(rec); err != nil {
			return fmt.Errorf("ledger: %s record %d (%v): %w", dir, i, rec.Type, err)
		}
		switch rec.Type {
		case TypeRepartition:
			endGeneration()
			out = append(out, rec)
		case TypeCheckpoint:
			gen = append(gen, rec.Children...)
		default:
			gen = append(gen, rec)
		}
	}
	endGeneration()

	var w wire.Writer
	for _, rec := range out {
		if err := appendRecord(&w, rec); err != nil {
			return err
		}
	}
	logPath := filepath.Join(dir, LogName)
	tmp := logPath + ".tmp"
	if err := os.WriteFile(tmp, w.Bytes(), 0o644); err != nil {
		return fmt.Errorf("ledger: writing compacted log: %w", err)
	}
	if err := os.Rename(tmp, logPath); err != nil {
		return fmt.Errorf("ledger: installing compacted log: %w", err)
	}
	return nil
}
