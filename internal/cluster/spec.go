// Package cluster executes the Pipe-BD pipelined schedule across worker
// processes: a coordinator maps a sched.Plan's devices onto workers over
// a pluggable transport, opens each worker's session with one Assign
// frame (model spec, seed parameters, the first group's batch schedule or
// the recipe for it), routes teacher-relay activations and intra-group
// gradient all-reduce frames between pipeline stages, and streams back
// per-block losses and the trained weights.
//
// Every worker runs the exact engine.RunMember device loop the in-process
// pipeline uses, behind a transport-backed engine.DeviceLink, and all
// floats cross the wire bit-exactly — so a cluster run reproduces
// engine.RunPipelined's training trajectory bit-for-bit, on loopback and
// TCP alike. The equivalence suite pins this, extending the paper's "no
// modification to the mathematical formulation" claim across process
// boundaries.
//
// # One way into a session
//
// Every attempt — the first, a restart after a lost worker, a degrade, a
// repartition, a coordinator resumed from its ledger — places its devices
// by the same loop (driver.go): dial a worker for each placement slot and
// take its Hello, build the placement directory from who answered, send
// each session one Assign. The Assign is the only session-open frame;
// past the seed it also carries each hosted device's state at the cut.
// The only input that differs between attempts is the candidate list: a
// restart may land a slot on a surviving worker, a fresh run waits for
// the slot's own.
//
// Only the first pipeline stage ever touches a batch, and under both
// topologies it reads it locally: a session hosting first-group devices
// regenerates the schedule from Config.Data's deterministic recipe
// (wire.DataSpec) — bit-identically, validated against the run's actual
// batches at start — or, without a recipe, takes the whole schedule from
// its Assign (one frame, bounded by wire.MaxPayload; pass Config.Data for
// anything larger). No per-step input frame exists.
//
// # Topologies: hub and peer-to-peer ring
//
// Config.Topology selects the data plane (wire codec v4). The default
// "hub" routes every activation and gradient through the coordinator. "ring" gives the
// workers direct links: each session's Assign carries the run's
// placement directory and a unique epoch, the workers dial each other
// (higher-ranked device's host dials the lower's, a PeerHello echo pins
// (epoch, from, to) so a stale dial from a superseded attempt can never
// wire into a fresh mesh), and then
//
//   - stage-to-stage activations flow from every member of a group
//     straight to every member of the next group (PeerInput frames,
//     acknowledged per step so the sender's window matches the hub's
//     pipeline-depth backpressure), and
//   - split groups average gradients with a ring collective: a direct
//     reduce-scatter (each member sends each segment to its owner, the
//     owner folds contributions in ascending rank order from a zeroed
//     accumulator — the exact order the hub uses) followed by a ring
//     all-gather (RingSegment frames; two-member groups exchange whole
//     vectors instead).
//
// The coordinator is demoted to a control plane — placement, loss
// collection, the step barrier, snapshots. Coordinator traffic therefore
// no longer scales with activation, gradient, or input size, while both
// topologies stay bit-identical to the in-process pipeline and to each
// other.
//
// # Fault tolerance: one recovery model, the global cut
//
// With Config.MaxRestarts > 0 a run survives worker loss, under one rule
// for both topologies (driver.go). The protocol adds two frames (wire
// codec v2):
//
//   - Heartbeat: workers beacon on Config.HeartbeatInterval so the
//     coordinator can declare a silent worker dead (HeartbeatTimeout),
//     not just one whose connection errors.
//   - Snapshot: after every step, each group's rank-0 device ships the
//     state that makes the group's next step a pure function — student
//     parameters and SGD momentum, captured right after the update. The
//     coordinator keeps each group's snapshots back to the global cut:
//     the newest step every group holds a snapshot for and every device
//     has accounted for (loss row recorded and, without DPU, barrier
//     arrival counted).
//
// On a death the attempt fails fast, every session is superseded, and the
// driver re-places every device — dialing each slot's own worker first (a
// restarted pipebd-worker -rejoin), then the survivors, which can host
// several sessions — with the Assign carrying the group's state at the
// cut. The worker rebuilds the replicas, restores them, and runs the same
// device loop from cut+1.
//
// Nothing in flight is salvaged: a half-assembled gather or one side of a
// ring collective dies with the attempt and is recomputed, because the
// teacher relay makes every replayed step a pure function of the restored
// state and the batches. A fresh attempt therefore never sees a
// frame twice, and a duplicate is a protocol error. The result: a run that
// loses workers produces losses and trained weights bit-identical to a
// fault-free run — pinned by the recovery suites under a deterministic
// transport.Chaos fault schedule on loopback and TCP, hub and ring, with
// and without DPU.
//
// # Snapshot policy
//
// One snapshot per group: the members of a split group are bit-identical
// replicas after every step, so only rank 0 encodes, ships and (in a
// durable run) logs one, and a snapshot frame from any other rank is a
// protocol error. Config.Snapshot tunes the traffic: Interval k snapshots
// every k-th step (a restart then replays up to k steps from the last
// covered one). Whether a snapshotted step can be the cut is decided from
// every member's loss and barrier marks, never by the snapshot alone.
//
// # Durable runs and coordinator restart
//
// With Config.LedgerDir the coordinator persists the manifest (plan, spec,
// run config, batches, seed weights) plus what the cut is computed from —
// every snapshot, loss row, barrier release and repartition cut — to an
// internal/cluster/ledger store. ResumeRun restarts a killed coordinator
// from that directory: it replays the record log to recover the cut and
// hands it to the same driver a live restart uses, finishing the run with
// losses and trained weights bit-identical to an uninterrupted run; the
// resumed run keeps appending, so it can itself be killed and resumed
// again.
package cluster

import (
	"fmt"

	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/nn"
	"pipebd/internal/tensor"
)

// TinySpec describes the compression workbench (conv teacher, depthwise-
// separable student) as a wire model spec.
func TinySpec(cfg distill.TinyConfig) wire.ModelSpec {
	return wire.ModelSpec{Name: "tiny", Seed: cfg.Seed, Blocks: cfg.Blocks,
		Channels: cfg.Channels, Height: cfg.Height, Width: cfg.Width, Classes: cfg.Classes}
}

// TransformerSpec describes the transformer workbench (encoder-layer
// blocks, KL logit distillation) as a wire model spec. The hidden width
// rides the Channels field; the attention/MLP/sequence geometry uses the
// codec-v7 transformer fields.
func TransformerSpec(cfg distill.TransformerConfig) wire.ModelSpec {
	return wire.ModelSpec{Name: "transformer", Seed: cfg.Seed, Blocks: cfg.Blocks,
		Channels: cfg.Dim, Classes: cfg.Classes, Heads: cfg.Heads,
		FFTeacher: cfg.TeacherFF, FFStudent: cfg.StudentFF,
		SeqLen: cfg.SeqLen, Vocab: cfg.Vocab, Temp: cfg.Temp}
}

// BuildWorkbench reconstructs the workbench named by a spec. The
// constructors are deterministic, so every process building the same spec
// gets bit-identical initial weights (including the teacher's frozen
// batch-norm statistics, which the parameter snapshot does not carry).
func BuildWorkbench(spec wire.ModelSpec) (*distill.Workbench, error) {
	switch spec.Name {
	case "tiny":
		return distill.NewTinyWorkbench(distill.TinyConfig{Seed: spec.Seed,
			Blocks: spec.Blocks, Channels: spec.Channels, Height: spec.Height,
			Width: spec.Width, Classes: spec.Classes}), nil
	case "transformer":
		return distill.NewTransformerWorkbench(distill.TransformerConfig{Seed: spec.Seed,
			Blocks: spec.Blocks, Dim: spec.Channels, Heads: spec.Heads,
			TeacherFF: spec.FFTeacher, StudentFF: spec.FFStudent,
			SeqLen: spec.SeqLen, Vocab: spec.Vocab, Classes: spec.Classes,
			Temp: spec.Temp}), nil
	default:
		return nil, fmt.Errorf("cluster: unknown model spec %q (want tiny or transformer)", spec.Name)
	}
}

// CaptureSnapshot clones every teacher and student parameter of w — the
// seed weights the coordinator broadcasts so worker replicas start from
// the coordinator's exact state even if it has drifted from the spec's
// initialization.
func CaptureSnapshot(w *distill.Workbench) wire.Snapshot {
	snap := wire.Snapshot{
		Teacher: make([][]*tensor.Tensor, w.NumBlocks()),
		Student: make([][]*tensor.Tensor, w.NumBlocks()),
	}
	for b, pair := range w.Pairs {
		for _, p := range pair.Teacher.Params() {
			snap.Teacher[b] = append(snap.Teacher[b], p.Value.Clone())
		}
		for _, p := range pair.Student.Params() {
			snap.Student[b] = append(snap.Student[b], p.Value.Clone())
		}
	}
	return snap
}

// InstallSnapshot copies snapshot values into w's parameters. Block and
// parameter counts (and shapes) must match w's architecture.
func InstallSnapshot(w *distill.Workbench, snap wire.Snapshot) error {
	if len(snap.Teacher) != w.NumBlocks() || len(snap.Student) != w.NumBlocks() {
		return fmt.Errorf("cluster: snapshot has %d/%d blocks, workbench has %d",
			len(snap.Teacher), len(snap.Student), w.NumBlocks())
	}
	install := func(b int, side string, got []*tensor.Tensor, params []*nn.Param) error {
		if len(got) != len(params) {
			return fmt.Errorf("cluster: snapshot block %d has %d %s params, workbench has %d",
				b, len(got), side, len(params))
		}
		for pi, t := range got {
			if !t.SameShape(params[pi].Value) {
				return fmt.Errorf("cluster: snapshot block %d %s param %d shape %v, workbench wants %v",
					b, side, pi, t.Shape(), params[pi].Value.Shape())
			}
			params[pi].Value.CopyFrom(t)
		}
		return nil
	}
	for b, pair := range w.Pairs {
		if err := install(b, "teacher", snap.Teacher[b], pair.Teacher.Params()); err != nil {
			return err
		}
		if err := install(b, "student", snap.Student[b], pair.Student.Params()); err != nil {
			return err
		}
	}
	return nil
}
