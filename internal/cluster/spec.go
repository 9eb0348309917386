// Package cluster executes the Pipe-BD pipelined schedule across worker
// processes: a coordinator maps a sched.Plan's devices onto workers over
// a pluggable transport, opens each worker's session with one Assign
// frame (model spec, seed parameters, the recipe the first group
// regenerates its batches from, which peer edges it relays), and collects
// per-block losses and the trained weights while the devices exchange
// teacher-relay activations and intra-group gradient all-reduce frames
// among themselves.
//
// Every worker runs the exact engine.RunMember device loop the in-process
// pipeline uses, behind a transport-backed engine.DeviceLink, and all
// floats cross the wire bit-exactly — so a cluster run reproduces
// engine.RunPipelined's training trajectory bit-for-bit, on loopback and
// TCP alike. FuzzClusterRun pins this (see below), extending the
// paper's "no modification to the mathematical formulation" claim across
// process boundaries.
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
// topologies it builds it locally: a first-group device builds each
// step's batch from Config.Data's deterministic recipe (wire.DataSpec)
// when it consumes the step — bit-identically, the recipe validated
// against the run's actual batches before any worker is dialed. The recipe is required, and it is
// the only copy of the data a run keeps: no batch rides in an Assign or a
// ledger manifest, and no per-step input frame exists.
//
// # One data plane, two ways to carry its edges
//
// Every session runs the same device link (ringLink) over one endpoint
// per peer edge:
//
//   - stage-to-stage activations flow from every member of a group to
//     every member of the next group (Output frames; under DPU each is
//     acknowledged so a sender runs at most two steps ahead, without DPU
//     the step barrier bounds it and no ack is sent), and
//   - split groups average gradients with a ring collective: a direct
//     reduce-scatter (each member sends each segment to its owner, the
//     owner folds contributions in ascending rank order from a zeroed
//     accumulator — the in-process engine's exact order) followed by a
//     ring all-gather (RingSegment frames; two-member groups exchange
//     whole vectors instead).
//
// Each Assign carries the run's placement directory, a unique epoch and
// the list of relayed edges; Config.Topology only decides that list.
// Under "ring" it starts empty: the workers dial each other
// (higher-ranked device's host dials the lower's, a PeerHello echo pins
// (epoch, from, to) so a stale dial from a superseded attempt can never
// wire into a fresh mesh), and only an edge whose link exhausted its
// retry budget is relayed from the next attempt on. Under "hub" (the
// default) every edge of the attempt's plan is relayed and no worker
// dials. A relayed frame travels up its session's control link in a Relay
// envelope; the coordinator checks that the session hosts the frame's
// source and that the edge is relayed, and forwards it unopened.
//
// Either way the coordinator assembles and reduces nothing — its own work
// is placement, loss collection, the step barrier and snapshots — and
// both topologies are bit-identical to the in-process pipeline and to
// each other.
//
// # One goroutine decides
//
// An attempt's decisions are one pure state machine, attemptCore.step
// (attempt.go): an event in, effects out. The core owns the barrier
// counts and done marks, every record applied to the run's
// ledger.Account, loss, snapshot, final-parameter and Done handling, the
// classification of lost sessions and downed links, the heartbeat rule
// and the repartitioner's streak; it holds no socket, lock or clock. In
// the shell (coordinator.go) one reader per session decodes and stamps
// frames, and the attempt's loop on the driver goroutine feeds the core
// those events and heartbeat ticks one at a time and carries out the
// effects. The loop's return orders every account write before the next
// attempt reads it. Relay envelopes bypass the loop: a reader checks each
// against the core's route table and forwards it at once, because under
// the hub every activation and all-reduce frame crosses the coordinator.
//
// # One clock
//
// Every wait of a run — deadlines, retries, heartbeats, chaos windows —
// reads the transport.Clock of the coordinator's Network or the worker's
// Listener (the wall clock in production; a test gives a Loopback a manual
// one), through transport.Retry, WaitCond and Sleep, so nothing polls.
//
// # Fault tolerance: one recovery model, the global cut
//
// With Config.MaxRestarts > 0 a run survives worker loss, under one rule
// for both topologies (driver.go). The protocol adds two frames (wire
// codec v2):
//
//   - Heartbeat: workers beacon on Config.HeartbeatInterval so the
//     coordinator can declare a worker silent for four intervals dead,
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
// restarted pipebd worker -rejoin), then the survivors, which can host
// several sessions — with the Assign carrying the group's state at the
// cut. The worker rebuilds the replicas, restores them, and runs the same
// device loop from cut+1.
//
// Nothing in flight is salvaged: a half-assembled input or one side of a
// ring collective dies with the attempt and is recomputed, because the
// teacher relay makes every replayed step a pure function of the restored
// state and the batches. A fresh attempt therefore never sees a
// frame twice, and a duplicate is a protocol error. The result: a run that
// loses workers produces losses and trained weights bit-identical to a
// fault-free run — pinned by FuzzClusterRun, whose seeds draw the run
// (model, plan, DPU, hub or ring, loopback or TCP, workers, snapshot
// policy, durability) and a deterministic, frame-triggered
// transport.Chaos schedule of kills, flaps, truncations and coordinator
// crashes; go test -run 'FuzzClusterRun/<corpus file>' ./internal/cluster/
// replays one of its committed seeds.
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
// run config with its data recipe, seed weights) plus what the cut is computed from —
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
// batch-norm statistics, which the seed snapshot does not carry).
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

// CaptureSnapshot clones w's seed weights — every teacher parameter and
// every student block's value slab — which the coordinator broadcasts so
// worker replicas start from the coordinator's exact state even if it has
// drifted from the spec's initialization.
func CaptureSnapshot(w *distill.Workbench) wire.Snapshot {
	snap := wire.Snapshot{
		Teacher: make([][]*tensor.Tensor, w.NumBlocks()),
		Student: make([]*tensor.Tensor, w.NumBlocks()),
	}
	for b, pair := range w.Pairs {
		for _, p := range pair.Teacher.Params() {
			snap.Teacher[b] = append(snap.Teacher[b], p.Value.Clone())
		}
		snap.Student[b] = pair.Slabs.Values.Clone()
	}
	return snap
}

// InstallSnapshot copies snapshot values into w: the teacher parameter
// by parameter, the student a value slab per block. Block and teacher
// parameter counts, and every shape, must match w's architecture.
func InstallSnapshot(w *distill.Workbench, snap wire.Snapshot) error {
	if len(snap.Teacher) != w.NumBlocks() || len(snap.Student) != w.NumBlocks() {
		return fmt.Errorf("cluster: snapshot has %d/%d blocks, workbench has %d",
			len(snap.Teacher), len(snap.Student), w.NumBlocks())
	}
	for b, pair := range w.Pairs {
		params := pair.Teacher.Params()
		if len(snap.Teacher[b]) != len(params) {
			return fmt.Errorf("cluster: snapshot block %d has %d teacher params, workbench has %d",
				b, len(snap.Teacher[b]), len(params))
		}
		for pi, t := range snap.Teacher[b] {
			if !t.SameShape(params[pi].Value) {
				return fmt.Errorf("cluster: snapshot block %d teacher param %d shape %v, workbench wants %v",
					b, pi, t.Shape(), params[pi].Value.Shape())
			}
			params[pi].Value.CopyFrom(t)
		}
		if slab := snap.Student[b]; !slab.SameShape(pair.Slabs.Values) {
			return fmt.Errorf("cluster: snapshot block %d student slab shape %v, workbench wants %v",
				b, slab.Shape(), pair.Slabs.Values.Shape())
		}
		pair.Slabs.Values.CopyFrom(snap.Student[b])
	}
	return nil
}
