package pipeline

import (
	"testing"

	"pipebd/internal/hw"
	"pipebd/internal/model"
	"pipebd/internal/sched"
)

// Degraded-device (straggler) injection: per-device GPU models let us
// slow one device down — thermal throttling, a failing card, a noisy
// neighbour — and observe how each schedule degrades. This is the
// fault-tolerance face of decoupled parameter update: without DPU every
// step synchronizes on the straggler; with DPU only the relay neighbours
// feel it.

// withStraggler returns the system with device idx derated to the given
// fraction of its compute and bandwidth.
func withStraggler(sys hw.System, idx int, frac float64) hw.System {
	gpus := append([]hw.GPU(nil), sys.GPUs...)
	gpus[idx].PeakFLOPS *= frac
	gpus[idx].MemBandwidth *= frac
	gpus[idx].Name = gpus[idx].Name + " (throttled)"
	out := sys
	out.GPUs = gpus
	return out
}

func TestStragglerHurtsBarrierScheduleMore(t *testing.T) {
	// Slow down the last device to 40%: the barrier schedule (TR) must
	// lose more than the decoupled one (TR+DPU), because every one of
	// its steps waits for the straggler's update.
	w := model.NAS(false)
	healthy := hw.A6000x4()
	sick := withStraggler(healthy, 3, 0.4)

	plan := sched.TRContiguous(w, healthy, 256)

	run := func(sys hw.System, dpu bool) float64 {
		cfg := Config{Workload: w, System: sys, GlobalBatch: 256, MaxSteps: 40}
		return relay(cfg, plan, dpu).EpochTime
	}

	barrierSlowdown := run(sick, false) / run(healthy, false)
	dpuSlowdown := run(sick, true) / run(healthy, true)
	if barrierSlowdown <= 1.01 {
		t.Fatalf("straggler had no effect on barrier schedule (%.3fx)", barrierSlowdown)
	}
	if dpuSlowdown > barrierSlowdown+1e-9 {
		t.Fatalf("DPU (%.3fx slowdown) should degrade no worse than the barrier schedule (%.3fx)",
			dpuSlowdown, barrierSlowdown)
	}
}

func TestStragglerSlowsBaselines(t *testing.T) {
	// Every member is priced on its own GPU, whatever the program: the
	// same throttled device that slows Pipe-BD must slow DP (all ranks
	// meet at its all-reduce) and LS (it holds tasks of its own). The
	// hand-written DP and LS sweeps priced every rank on GPU 0 and saw
	// no straggler at all.
	w := model.NAS(false)
	healthy := hw.A6000x4()
	sick := withStraggler(healthy, 3, 0.4)
	for _, name := range []string{DP, LS} {
		cfg := Config{Workload: w, System: healthy, GlobalBatch: 256, MaxSteps: 40}
		was := rung(t, cfg, name).EpochTime
		cfg.System = sick
		if now := rung(t, cfg, name).EpochTime; now <= was*1.01 {
			t.Errorf("%s: a device at 40%% left the epoch at %v (healthy %v)", name, now, was)
		}
	}
}

func TestHeteroPlannerRoutesAroundStraggler(t *testing.T) {
	// Given a straggler, the ladder's AHD rung — which prices every
	// member on its own GPU — should produce a schedule at least as good
	// as the plan made believing all devices healthy. (The rung used to
	// price every device as GPU 0, which here is the straggler itself.)
	w := model.NAS(false)
	sick := withStraggler(hw.A6000x4(), 0, 0.35)
	cfg := Config{Workload: w, System: sick, GlobalBatch: 256, MaxSteps: 40}

	blind := sched.AHD(w, hw.A6000x4(), 256)
	blindTime := relay(cfg, blind, true).EpochTime
	aware := rung(t, cfg, AHD)
	if aware.EpochTime > blindTime*1.001 {
		t.Fatalf("straggler-aware plan (%v, %s) worse than blind plan (%v, %s)",
			aware.EpochTime, aware.ScheduleDesc, blindTime, blind.Describe())
	}
}

func TestStragglerShiftsShares(t *testing.T) {
	// With a throttled member inside a shared group, proportional shares
	// must shrink on the sick device.
	w := model.NAS(false)
	sick := withStraggler(hw.A6000x4(), 1, 0.5)
	ahd, err := Strategy(Config{Workload: w, System: sick, GlobalBatch: 256}, AHD)
	if err != nil {
		t.Fatal(err)
	}
	shared := false
	for _, g := range ahd.Phases[0] {
		if g.Split() < 2 || g.Shares == nil {
			continue
		}
		for j, d := range g.Devices {
			if d != 1 {
				continue
			}
			// Device 1 is throttled: its share must be below the
			// group's equal split.
			shared = true
			if g.Shares[j] >= 256/g.Split() {
				t.Fatalf("throttled device got share %d of %d-way group: %s",
					g.Shares[j], g.Split(), ahd.Desc)
			}
		}
	}
	if !shared {
		t.Fatalf("the pick %s shares no group with the throttled device", ahd.Desc)
	}
}
