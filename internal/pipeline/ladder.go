package pipeline

import (
	"fmt"
	"strings"

	"pipebd/internal/metrics"
	"pipebd/internal/sched"
)

// The strategies of the paper's ablation (Fig. 4), by the names its
// figures use.
const (
	DP    = "DP"
	LS    = "LS"
	TR    = "TR"
	TRDPU = "TR+DPU"
	TRIR  = "TR+IR"
	AHD   = "TR+DPU+AHD"
)

// Rung is one strategy of the ladder: a named program and the
// configuration to play it on.
type Rung struct {
	sched.Program
	// Config is the caller's, except on the LS rung, where the workload is
	// cut into the tasks LS packs: the program's block numbers count them.
	Config Config
}

// Run simulates the rung's epoch.
func (r Rung) Run() (metrics.Report, Tracks) { return Run(r.Config, r.Program) }

// Ladder returns the paper's strategies in Fig. 4 order for cfg's
// workload, system and batch: the DP and LS baselines, then teacher
// relaying on the contiguous plan with and without decoupled parameter
// update, the internal-relaying ablation and AHD's hybrid plan — both
// plans searched against sched.Price on cfg's own devices.
// Everything that says which strategy is which program is here.
func Ladder(cfg Config) []Rung {
	w, sys, n := cfg.Workload, cfg.System, cfg.System.NumDevices()
	contiguous := sched.TRContiguous(w, sys, cfg.GlobalBatch)

	// LS balances on a static FLOPs-proportional estimate of each task
	// alone — teacher prefix forward plus student forward and backward
	// (~2x forward) — not on sched.Price: profiling is Pipe-BD's
	// contribution, and the mismatch with what execution costs is what
	// wrecks the baseline's balance on bandwidth-bound models.
	lsCfg := cfg
	lsCfg.Workload = w.AtLSGranularity()
	tasks, students := lsCfg.Workload.Teacher.Net.Blocks, lsCfg.Workload.Student.Net.Blocks
	est := make([]float64, len(tasks))
	var prefixFLOPs float64
	for u := range tasks {
		est[u] = prefixFLOPs + tasks[u].FwdFLOPs(cfg.GlobalBatch) + 3*students[u].FwdFLOPs(cfg.GlobalBatch)
		prefixFLOPs += tasks[u].FwdFLOPs(cfg.GlobalBatch)
	}

	rung := func(name string, c Config, p sched.Program) Rung {
		p.Name = name
		return Rung{p, c}
	}
	return []Rung{
		rung(DP, cfg, sched.DataParallel(n, w.NumBlocks())),
		rung(LS, lsCfg, sched.Layerwise(est, n)),
		rung(TR, cfg, sched.TeacherRelaying(contiguous, false)),
		rung(TRDPU, cfg, sched.TeacherRelaying(contiguous, true)),
		rung(TRIR, cfg, sched.TeacherRelaying(sched.InternalRelaying(n, w.NumBlocks()), true)),
		rung(AHD, cfg, sched.TeacherRelaying(sched.AHD(w, sys, cfg.GlobalBatch), true)),
	}
}

// Strategy returns the named rung of cfg's ladder.
func Strategy(cfg Config, name string) (Rung, error) {
	var names []string
	for _, r := range Ladder(cfg) {
		if r.Name == name {
			return r, nil
		}
		names = append(names, r.Name)
	}
	return Rung{}, fmt.Errorf("unknown strategy %q (want one of %s)", name, strings.Join(names, ", "))
}
