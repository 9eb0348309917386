package pipeline

import (
	"math"
	"testing"

	"pipebd/internal/hw"
	"pipebd/internal/model"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
)

// near reports whether a sum the sweep accumulated step by step equals
// the priced total up to float accumulation.
func near(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Max(1, want) }

func TestPlannerPricesWhatTheSweepPlays(t *testing.T) {
	// The planners minimise sched.Price; Run must play exactly those
	// numbers. For every rung of every workload, on equal and on mixed
	// devices, what Price says a device pays per step — summed over the
	// stages that list it — is what the report says it was busy for, per
	// category, and its peak memory is its worst stage's sched.Memory.
	for _, sys := range []hw.System{hw.A6000x4(), mixedSystem()} {
		for _, w := range model.AllWorkloads() {
			for _, r := range Ladder(quickCfg(w, sys)) {
				rep, _ := r.Run()
				steps := float64(r.Config.steps())
				n := sys.NumDevices()
				teacher, student, allReduce, update := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				mem := make([]int64, n)
				for _, phase := range r.Phases {
					for si, st := range phase {
						members, err := sched.Price(r.Config.Workload, sys, r.Config.GlobalBatch, st)
						if err != nil {
							t.Fatal(err)
						}
						for _, m := range members {
							teacher[m.Device] += steps * m.Teacher()
							student[m.Device] += steps * m.Student()
							update[m.Device] += steps * (m.Update + sys.Host.StepOverhead)
							if st.Split() > 1 {
								allReduce[m.Device] += steps * m.ExposedAllReduce
							}
							mem[m.Device] = max(mem[m.Device], sched.Memory(r.Config.Workload, r.Model, phase, si, m.Batch))
						}
					}
				}
				for d, rank := range rep.Ranks {
					for _, c := range []struct {
						what        string
						got, priced float64
					}{
						{"teacher", rank.Busy[obs.CatTeacherFwd], teacher[d]},
						{"student", rank.Busy[obs.CatStudentFwd] + rank.Busy[obs.CatStudentBwd], student[d]},
						{"all-reduce", rank.Busy[obs.CatAllReduce], allReduce[d]},
						{"update", rank.Busy[obs.CatUpdate], update[d]},
					} {
						if !near(c.got, c.priced) {
							t.Errorf("%s/%s/%s device %d: %s busy %v s, priced %v s", sys.Name, w.Name, r.Name, d, c.what, c.got, c.priced)
						}
					}
					if rank.PeakMemBytes != mem[d] {
						t.Errorf("%s/%s/%s device %d: peak memory %d B, priced %d B", sys.Name, w.Name, r.Name, d, rank.PeakMemBytes, mem[d])
					}
				}
			}
		}
	}
}

func TestThreeWayStagePlaysWholeBatch(t *testing.T) {
	// NAS/CIFAR-10 at batch 256 picks a 3-way group, and 256/3 truncates:
	// an equal split would load and train 3x85 = 255 samples a step. The
	// planner's shares must cover the batch — the shared loader then
	// produces 256 samples a step — and the equal split must be refused.
	w, sys := model.NAS(false), hw.A6000x4()
	cfg := quickCfg(w, sys)
	ahd, err := Strategy(cfg, AHD)
	if err != nil {
		t.Fatal(err)
	}
	first := ahd.Phases[0][0]
	if first.Split() != 3 {
		t.Fatalf("the pick %s has no 3-way first group", ahd.Desc)
	}
	played := 0
	for j := range first.Devices {
		played += first.MemberBatch(256, j)
	}
	if played != 256 {
		t.Fatalf("the 3-way stage plays %d samples a step, shares %v", played, first.Shares)
	}
	_, tracks := ahd.Run()
	if got, want := tracks.Loader.Busy(obs.CatLoad), float64(cfg.MaxSteps)*cfg.loadTime(256); !near(got, want) {
		t.Fatalf("the loader produced %v s of samples, %d steps of 256 take %v s", got, cfg.MaxSteps, want)
	}

	first.Shares = nil
	defer func() {
		if recover() == nil {
			t.Fatal("an equal 3-way split of 256 was played, one sample short")
		}
	}()
	Run(cfg, sched.Program{Phases: [][]sched.Stage{{first, ahd.Phases[0][1]}}})
}
