// Package pipeline is the virtual-time executor of schedules: Run plays a
// sched.Program — the same stages and phases the engine's device loop
// plays on real kernels — on the simulator's tracks, with durations and
// memory from sched.Price and sched.Memory, the numbers the planners
// searched to pick the program's plan, and reports the epoch time,
// per-rank busy breakdowns and per-rank peak memory.
//
// There is one sweep and it knows no strategy. Per step and stage, every
// member receives its input (its batch share from the shared loader, or
// the previous stage's boundary activation through the senders' copy
// engines), runs the stage's teacher blocks, trains its student blocks,
// shares gradients when the stage is split and updates, at once or
// behind the step barrier. DP, LS, TR, TR+DPU, TR+IR and AHD are the
// programs Ladder builds; each member is priced on its own GPU at its
// own share, so a straggler slows a baseline as it slows Pipe-BD, and a
// stage whose shares do not cover the batch is refused, not truncated.
package pipeline

import (
	"fmt"

	"pipebd/internal/hw"
	"pipebd/internal/metrics"
	"pipebd/internal/model"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/sim"
)

// Config parameterizes one simulated epoch.
type Config struct {
	Workload    model.Workload
	System      hw.System
	GlobalBatch int

	// MaxSteps truncates each dataset pass to this many steps when > 0
	// (useful for Gantt recording and fast tests). The reported Steps
	// and EpochTime then cover only the simulated prefix.
	MaxSteps int

	// Record keeps every track's spans for Gantt rendering and trace
	// export (sim.Spans).
	Record bool
}

func (c Config) validate() {
	if err := c.System.Validate(); err != nil {
		panic(err)
	}
	if err := c.Workload.Validate(); err != nil {
		panic(err)
	}
	if c.GlobalBatch <= 0 {
		panic("pipeline: GlobalBatch must be positive")
	}
	n := c.System.NumDevices()
	if c.GlobalBatch%n != 0 {
		panic(fmt.Sprintf("pipeline: GlobalBatch %d not divisible by %d devices", c.GlobalBatch, n))
	}
}

// steps returns the number of steps for one dataset pass, honouring
// MaxSteps truncation.
func (c Config) steps() int {
	s := c.Workload.Data.StepsPerEpoch(c.GlobalBatch)
	if c.MaxSteps > 0 && s > c.MaxSteps {
		s = c.MaxSteps
	}
	return s
}

// loadTime returns the shared loader's time to produce the given number
// of samples.
func (c Config) loadTime(samples int) float64 {
	spec := c.Workload.Data
	return c.System.Host.LoadTime(spec.StorageBytes*int64(samples),
		spec.DecodeCPUSeconds*float64(samples))
}

// waitFor stalls dev until ready, attributing the gap to cat (load or
// relay wait). Gaps from barriers are left unattributed and fall into
// idle time during report assembly.
func waitFor(dev *sim.Track, ready float64, cat obs.Category, label string) {
	if gap := ready - dev.FreeAt(); gap > 0 {
		dev.Exec(dev.FreeAt(), gap, cat, label)
	}
}

// Tracks are the simulation's serial resources after a run, for Gantt
// rendering (spans are kept only under Config.Record).
type Tracks struct {
	Loader *sim.Track
	Devs   []*sim.Track
	Copies []*sim.Track
}

func newTracks(cfg Config) Tracks {
	n := cfg.System.NumDevices()
	tk := Tracks{
		Loader: sim.NewTrack("loader", cfg.Record),
		Devs:   make([]*sim.Track, n),
		Copies: make([]*sim.Track, n),
	}
	for d := 0; d < n; d++ {
		tk.Devs[d] = sim.NewTrack(fmt.Sprintf("gpu%d", d), cfg.Record)
		tk.Copies[d] = sim.NewTrack(fmt.Sprintf("copy%d", d), cfg.Record)
	}
	return tk
}

// latest returns the time the last of the tracks becomes free.
func latest(tracks []*sim.Track) float64 {
	var end float64
	for _, t := range tracks {
		end = max(end, t.FreeAt())
	}
	return end
}

// report assembles a metrics.Report from the tracks after the sweep.
func (tk Tracks) report(cfg Config, prog sched.Program, steps int, peakMem []int64) metrics.Report {
	end := latest(tk.Devs)
	ranks := make([]metrics.RankStats, len(tk.Devs))
	for i, d := range tk.Devs {
		ranks[i] = metrics.RankStats{Track: d.Name, PeakMemBytes: peakMem[i]}
		for c := range ranks[i].Busy {
			ranks[i].Busy[c] = d.Busy(obs.Category(c))
		}
		// The clamp guards against float accumulation residue.
		ranks[i].Idle = max(0, end-ranks[i].TotalBusy())
	}
	return metrics.Report{
		Strategy:     prog.Name,
		Workload:     cfg.Workload.Name,
		System:       cfg.System.Name,
		GlobalBatch:  cfg.GlobalBatch,
		Steps:        steps,
		EpochTime:    end,
		Ranks:        ranks,
		ScheduleDesc: prog.Desc,
	}
}

// stage is one program stage with what sched.Price says a step of it
// costs each member.
type stage struct {
	sched.Stage
	members          []sched.MemberCost
	inBytesPerSample int64
}

// Run simulates one epoch of prog: every phase is a pass over the
// dataset, every step of a pass plays the phase's stages in order.
func Run(cfg Config, prog sched.Program) (metrics.Report, Tracks) {
	cfg.validate()
	nDev := cfg.System.NumDevices()
	if err := prog.Validate(nDev, cfg.Workload.NumBlocks()); err != nil {
		panic(err)
	}
	tk := newTracks(cfg)
	host, link := cfg.System.Host, cfg.System.Link
	steps := cfg.steps()
	peakMem := make([]int64, nDev)

	for _, phase := range prog.Phases {
		stages := make([]*stage, len(phase))
		for si, st := range phase {
			members, err := sched.Price(cfg.Workload, cfg.System, cfg.GlobalBatch, st)
			if err != nil {
				panic(err)
			}
			stages[si] = &stage{st, members, cfg.Workload.Teacher.Net.Blocks[st.Blocks[0]].InBytes(1)}
			for _, m := range members {
				peakMem[m.Device] = max(peakMem[m.Device], sched.Memory(cfg.Workload, prog.Model, phase, si, m.Batch))
			}
		}
		// A phase is a fresh pass of the loader: it starts when every
		// device is done with the pass before and prefetches nothing
		// across the boundary.
		tk.Loader.AdvanceTo(latest(tk.Devs))

		for s := 0; s < steps; s++ {
			var prev *stage
			var prevTeacherDone []float64
			for _, st := range stages {
				// A relayed input is ready when the slowest of the previous
				// stage's shards is through its sender's copy engine.
				var relayed float64
				if st.Relayed {
					for pj, pm := range prev.members {
						bytes := st.inBytesPerSample * int64(pm.Batch)
						_, end := tk.Copies[pm.Device].Exec(prevTeacherDone[pj], link.TransferTime(bytes), obs.CatComm, "TX")
						relayed = max(relayed, end)
					}
				}

				teacherDone := make([]float64, len(st.members))
				firstTeacher := st.Blocks[0] - st.Prefix()
				for j, m := range st.members {
					dev := tk.Devs[m.Device]
					// One training-loop iteration's fixed host-side cost.
					dev.Exec(0, host.StepOverhead, obs.CatUpdate, "OV")
					if st.Relayed {
						waitFor(dev, relayed, obs.CatComm, "RX")
					} else {
						// The member's share from the shared loader, then the
						// consumer side of a batch: iterator dispatch,
						// collation, host-to-device staging.
						_, loaded := tk.Loader.Exec(0, cfg.loadTime(m.Batch), obs.CatLoad, "DL")
						waitFor(dev, loaded, obs.CatLoad, "DL")
						dev.Exec(0, host.PerBatchOverhead, obs.CatLoad, "DL")
					}
					for i, t := range m.TeacherFwd {
						dev.Exec(0, t, obs.CatTeacherFwd, fmt.Sprintf("T%d", firstTeacher+i))
					}
					teacherDone[j] = dev.FreeAt()
					for bi, b := range st.Blocks {
						dev.Exec(0, m.StudentFwd[bi], obs.CatStudentFwd, fmt.Sprintf("S%d", b))
					}
					for bi := len(st.Blocks) - 1; bi >= 0; bi-- {
						dev.Exec(0, m.StudentBwd[bi], obs.CatStudentBwd, fmt.Sprintf("S%d", st.Blocks[bi]))
					}
				}
				// An all-reduce is a rendezvous: no member's starts before the
				// slowest member's backward pass ends.
				var backwardDone float64
				for _, m := range st.members {
					backwardDone = max(backwardDone, tk.Devs[m.Device].FreeAt())
				}
				for _, m := range st.members {
					dev := tk.Devs[m.Device]
					if st.Split() > 1 {
						dev.AdvanceTo(backwardDone)
						dev.Exec(0, m.ExposedAllReduce, obs.CatAllReduce, "AR")
					}
					if !prog.Barrier {
						dev.Exec(0, m.Update, obs.CatUpdate, "UP")
					}
				}
				prev, prevTeacherDone = st, teacherDone
			}

			if prog.Barrier {
				// Updates wait for every device's backward (Fig. 3b): the
				// bubbles decoupled parameter update removes.
				barrierAt := latest(tk.Devs)
				for _, st := range stages {
					for _, m := range st.members {
						tk.Devs[m.Device].AdvanceTo(barrierAt)
						tk.Devs[m.Device].Exec(0, m.Update, obs.CatUpdate, "UP")
					}
				}
			}
		}
	}
	return tk.report(cfg, prog, steps*len(prog.Phases), peakMem), tk
}
