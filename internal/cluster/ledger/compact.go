package ledger

import (
	"fmt"
	"os"
	"path/filepath"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/sched"
)

// Checkpoint builds a consolidated-prefix record.
func Checkpoint(children []*Record) *Record {
	return &Record{Type: TypeCheckpoint, Children: children}
}

// Compact rewrites a ledger's record log as one checkpoint record per
// plan generation holding only what a resume still needs, closing the
// "log grows unbounded with run length" debt. Within a generation it
// keeps:
//
//   - snapshot records at or past the generation's restore horizon — the
//     step the resume will restart every device from (see
//     compactGeneration);
//   - every loss row — the final Result needs the complete trajectory, and
//     loss rows are tiny next to the tensor records compaction drops;
//   - the newest barrier release.
//
// A repartitioned log is compacted generation by generation: the log is
// split at its repartition records, each generation's records are
// filtered under that generation's plan (the manifest's, then each
// recorded re-plan in turn), and the output interleaves one checkpoint
// per generation with the original repartition records — so the resume's
// generation split sees exactly the structure it saw before compaction.
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

	// Split the log at its repartition cuts. Earlier checkpoints are
	// flattened so Compact is idempotent; they never straddle a cut
	// (Compact itself writes one checkpoint per generation).
	type generation struct {
		recs   []*Record
		repart *Record // the terminating cut; nil for the last generation
	}
	gens := []generation{{}}
	for _, rec := range rep.Records {
		switch rec.Type {
		case TypeRepartition:
			gens[len(gens)-1].repart = rec
			gens = append(gens, generation{})
		case TypeCheckpoint:
			gens[len(gens)-1].recs = append(gens[len(gens)-1].recs, rec.Children...)
		default:
			gens[len(gens)-1].recs = append(gens[len(gens)-1].recs, rec)
		}
	}

	plan := man.Assign.Plan
	var out []byte
	for _, gen := range gens {
		kept := compactGeneration(gen.recs, plan.Groups, man.Assign.Run.DPU, gen.repart)
		payload, err := Checkpoint(kept).encode()
		if err != nil {
			return err
		}
		out = append(out, frameRecord(TypeCheckpoint, payload)...)
		if gen.repart != nil {
			rp, err := gen.repart.encode()
			if err != nil {
				return err
			}
			out = append(out, frameRecord(TypeRepartition, rp)...)
			next, err := wire.DecodePlan(gen.repart.Payload)
			if err != nil {
				return fmt.Errorf("ledger: %s repartition record (cut after step %d): %w", dir, gen.repart.Step, err)
			}
			plan = next
		}
	}

	logPath := filepath.Join(dir, LogName)
	tmp := logPath + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return fmt.Errorf("ledger: writing compacted log: %w", err)
	}
	if err := os.Rename(tmp, logPath); err != nil {
		return fmt.Errorf("ledger: installing compacted log: %w", err)
	}
	return nil
}

// compactGeneration filters one generation's records under its plan,
// returning the kept records in their original order. Snapshots are kept
// from the generation's restore horizon on: the newest step every group
// holds a snapshot for, at or below a bound that mirrors the resume's own
// cut computation. For the
// final generation (repart nil) the bound is the accounted step — loss
// rows from every device and, without DPU, the barrier release — because
// the resume restarts every device from the accounted global cut. For a
// superseded generation the bound is the recorded repartition cut itself;
// accounting does not apply, the live repartition already validated it.
// With no common step the horizon is -1: everything is kept and the
// resume replays from the seed.
func compactGeneration(recs []*Record, groups []sched.Group, dpu bool, repart *Record) []*Record {
	groupOf := map[int]int{}
	lossHi := map[int]int{}
	for gi, g := range groups {
		for _, d := range g.Devices {
			groupOf[d] = gi
			lossHi[d] = -1
		}
	}
	groupSnaps := make([]map[int]bool, len(groups))
	for gi := range groupSnaps {
		groupSnaps[gi] = map[int]bool{}
	}
	var lastBarrier *Record
	for _, rec := range recs {
		switch rec.Type {
		case TypeDevSnapshot:
			groupSnaps[groupOf[rec.Dev]][rec.Step] = true
		case TypeLosses:
			if rec.Step > lossHi[rec.Dev] {
				lossHi[rec.Dev] = rec.Step
			}
		case TypeBarrier:
			if lastBarrier == nil || rec.Step > lastBarrier.Step {
				lastBarrier = rec
			}
		}
	}
	bound := -1
	if repart != nil {
		bound = repart.Step
	} else if len(lossHi) > 0 {
		bound = 1 << 30
		for _, s := range lossHi {
			if s < bound {
				bound = s
			}
		}
		barrierHi := -1
		if lastBarrier != nil {
			barrierHi = lastBarrier.Step
		}
		if !dpu && barrierHi < bound {
			bound = barrierHi
		}
	}
	horizon := -1
	for s := bound; s >= 0; s-- {
		all := true
		for _, snaps := range groupSnaps {
			if !snaps[s] {
				all = false
				break
			}
		}
		if all {
			horizon = s
			break
		}
	}

	var kept []*Record
	for _, rec := range recs {
		switch rec.Type {
		case TypeDevSnapshot:
			if rec.Step >= horizon {
				kept = append(kept, rec)
			}
		case TypeLosses:
			kept = append(kept, rec)
		}
	}
	if lastBarrier != nil {
		kept = append(kept, lastBarrier)
	}
	return kept
}
