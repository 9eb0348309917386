package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

// Every workload trains with the same optimizer settings.
const (
	lr       = 0.05
	momentum = 0.9
	// imageClasses is the label range of the synthetic image data; the
	// conv workbenches have no classifier, so only the recipe needs it.
	imageClasses = 4
)

// The three plans, all over four blocks. hybrid31 is the cluster
// workloads' plan: under hybrid the unsplit tail device is 99% busy
// computing and hides all communication, while under hybrid31 the split
// front group — the one that all-reduces and fans out activations — sets
// the step time.
var (
	planHybrid = sched.Plan{Name: "hybrid", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1}},
		{Devices: []int{2}, Blocks: []int{2, 3}},
	}}
	planTR2 = sched.Plan{Name: "tr2", Groups: []sched.Group{
		{Devices: []int{0}, Blocks: []int{0, 1}},
		{Devices: []int{1}, Blocks: []int{2, 3}},
	}}
	planHybrid31 = sched.Plan{Name: "hybrid31", Groups: []sched.Group{
		{Devices: []int{0, 1}, Blocks: []int{0, 1, 2}},
		{Devices: []int{2}, Blocks: []int{3}},
	}}
)

// workload is one set of inputs the benchmark runs: a model, its data,
// a plan, and the runtime that executes it. Sizes are constants of the
// definitions below, never flags; seed is the only input that varies.
type workload struct {
	name string
	why  string

	conv distill.TinyConfig         // the model, unless xfmr is set
	xfmr *distill.TransformerConfig // the transformer model

	batch, steps int
	plan         sched.Plan
	dpu          bool
	backend      string // tensor backend registry name

	topology string // "" runs in-process; "ring" or "hub" run a TCP cluster
	durable  bool   // MaxRestarts 1, snapshots every step, ledger on disk
	dpRef    bool   // a traced run also times the data-parallel reference

	seed int64 // seeds model init (seed) and data (seed+1)
}

func workloads() []workload {
	small := distill.TinyConfig{Blocks: 4, Channels: 6, Height: 8, Width: 8}
	return []workload{
		{
			name:  "conv_inproc",
			why:   "compute-bound: packed conv GEMMs and nn do nearly all the work; link is Go channels and a shared-memory all-reduce",
			conv:  distill.TinyConfig{Blocks: 4, Channels: 16, Height: 16, Width: 16},
			batch: 16, steps: 16, plan: planHybrid, dpu: true, backend: "serial",
			dpRef: true,
		},
		{
			name: "xfmr_inproc",
			why:  "batched skinny per-head GEMMs and softmax/LayerNorm/GELU on the parallel backend's shared pool; no split group, no all-reduce",
			xfmr: &distill.TransformerConfig{Blocks: 4, Dim: 64, Heads: 4, TeacherFF: 256,
				StudentFF: 64, SeqLen: 32, Vocab: 512, Classes: 8, Temp: 2},
			batch: 16, steps: 8, plan: planTR2, dpu: true, backend: "parallel",
		},
		{
			name: "conv_ring_tcp",
			why:  "link-bound: peer sends, ack waits, ring all-reduce and wire codec on the bottleneck device; its m=6 GEMMs stay on the reference path",
			conv: small, batch: 16, steps: 96, plan: planHybrid31, dpu: true, backend: "serial",
			topology: "ring",
		},
		{
			name: "conv_hub_durable",
			why:  "same link layer the other way: every tensor relayed by the coordinator, plus per-step snapshots, ledger writes and a barrier round trip",
			conv: small, batch: 16, steps: 64, plan: planHybrid31, dpu: false, backend: "serial",
			topology: "hub", durable: true,
		},
	}
}

// samples is the number of training samples one pass consumes.
func (w *workload) samples() int { return w.steps * w.batch }

func (w *workload) devices() int {
	n := 0
	for _, g := range w.plan.Groups {
		n += g.Split()
	}
	return n
}

// dataSpec is the deterministic recipe of the workload's batches. Every
// runtime — the oracles, the in-process engine, ring workers loading
// their own inputs — evaluates this one definition.
func (w *workload) dataSpec(steps int) wire.DataSpec {
	ds := wire.DataSpec{Seed: w.seed + 1, N: steps * w.batch, Batch: w.batch}
	if w.xfmr != nil {
		ds.Kind, ds.L, ds.Vocab, ds.Classes = "tokens", w.xfmr.SeqLen, w.xfmr.Vocab, w.xfmr.Classes
	} else {
		ds.C, ds.H, ds.W, ds.Classes = 3, w.conv.Height, w.conv.Width, imageClasses
	}
	return ds
}

func (w *workload) modelSpec() wire.ModelSpec {
	if w.xfmr != nil {
		cfg := *w.xfmr
		cfg.Seed = w.seed
		return cluster.TransformerSpec(cfg)
	}
	cfg := w.conv
	cfg.Seed = w.seed
	return cluster.TinySpec(cfg)
}

// newWorkbench builds the workload's model from fresh weights.
func (w *workload) newWorkbench() *distill.Workbench {
	wb, err := cluster.BuildWorkbench(w.modelSpec())
	if err != nil {
		panic(err) // the specs above name only known models
	}
	return wb
}

func (w *workload) tensorBackend() tensor.Backend {
	be, ok := tensor.Lookup(w.backend)
	if !ok {
		panic("benchmark: unknown tensor backend " + w.backend)
	}
	return be
}

// tracedWorkbench is newWorkbench with a timedLayer around every pair's
// teacher and student. The replicas the engine builds for split groups
// come from the same constructor, so they are wrapped too; replica r's
// spans land on a track named after the device the plan gives it.
func (w *workload) tracedWorkbench(rec *recorder, pass int) *distill.Workbench {
	replica := 0
	return distill.NewWorkbench(func() []distill.Pair {
		pairs := w.newWorkbench().Pairs
		for b := range pairs {
			tk := rec.track(fmt.Sprintf("dev%d", deviceOf(w.plan, replica, b)))
			pairs[b].Teacher = &timedLayer{inner: pairs[b].Teacher, role: "teacher", tk: tk, pass: pass, open: -1}
			pairs[b].Student = &timedLayer{inner: pairs[b].Student, role: "student", tk: tk, pass: pass, open: -1}
		}
		replica++
		return pairs
	})
}

// deviceOf names the device that trains block b of the replica-th
// workbench engine.RunPipelined builds: the workbench itself (replica 0)
// serves member 0 of every group, and one further replica is built per
// extra member, in group order.
func deviceOf(p sched.Plan, replica, block int) int {
	extra := 0
	for _, g := range p.Groups {
		owns := false
		for _, b := range g.Blocks {
			owns = owns || b == block
		}
		if replica == 0 {
			if owns {
				return g.Devices[0]
			}
			continue
		}
		if j := replica - extra; j >= 1 && j < g.Split() {
			// The replica belongs to this group; its other blocks are
			// built but never run.
			return g.Devices[j]
		}
		extra += g.Split() - 1
	}
	return -1
}

// passOpts selects how one pass is set up.
type passOpts struct {
	steps   int       // 0 means the workload's own step count
	rec     *recorder // non-nil makes this a traced pass
	pass    int       // the pass id traced spans carry
	meter   bool      // count coordinator and peer bytes (cluster workloads)
	workDir string    // where a durable pass puts its ledger directory
}

// rig is everything one pass needs, built fresh by setup: the user pays
// for all of it on every run, which is why setup_s is a metric.
type rig struct {
	w       *workload
	o       passOpts
	wb      *distill.Workbench
	batches []dataset.Batch

	// Cluster workloads only.
	workers   []*cluster.Worker
	addrs     []string
	serving   sync.WaitGroup
	coordNet  transport.Network
	coord     *transport.Meter // set when o.meter
	peer      *transport.Meter
	ledgerDir string
}

// setup builds the workbench and the batches and, for cluster workloads,
// binds three TCP listeners on 127.0.0.1 and starts one worker on each.
// Workers are goroutines on real sockets rather than spawned processes so
// that the seams can be wrapped and process CPU time covers the system.
func (w *workload) setup(o passOpts) (*rig, error) {
	if o.steps == 0 {
		o.steps = w.steps
	}
	r := &rig{w: w, o: o}
	var err error
	if r.batches, err = w.dataSpec(o.steps).Batches(); err != nil {
		return nil, err
	}
	if o.rec != nil && w.topology == "" {
		r.wb = w.tracedWorkbench(o.rec, o.pass)
	} else {
		r.wb = w.newWorkbench()
	}
	if w.topology == "" {
		return r, nil
	}

	var tcp transport.Network = transport.TCP{}
	r.coordNet = tcp
	peerNet := tcp
	switch {
	case o.rec != nil:
		r.coordNet = &timedNet{inner: tcp, rec: o.rec, role: "coord", pass: o.pass}
		peerNet = &timedNet{inner: tcp, rec: o.rec, role: "peer", pass: o.pass}
	case o.meter:
		r.coord, r.peer = transport.NewMeter(tcp), transport.NewMeter(tcp)
		r.coordNet, peerNet = r.coord, r.peer
	}
	for i := 0; i < w.devices(); i++ {
		lis, err := tcp.Listen("127.0.0.1:0")
		if err != nil {
			r.teardown()
			return nil, err
		}
		cfg := cluster.WorkerConfig{Sessions: 1, Dial: peerNet}
		if o.rec != nil {
			// One device per worker, so the worker's kernels are device i's.
			cfg.Backend = &timedBackend{inner: w.tensorBackend(),
				tk: o.rec.track(fmt.Sprintf("dev%d", i)), pass: o.pass}
		}
		wk := cluster.NewWorker(lis, cfg)
		r.workers = append(r.workers, wk)
		r.addrs = append(r.addrs, wk.Addr())
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			_ = wk.Serve() // a failed session fails cluster.Run, which reports it
		}()
	}
	if w.durable {
		if r.ledgerDir, err = os.MkdirTemp(o.workDir, "ledger-"); err != nil {
			r.teardown()
			return nil, err
		}
	}
	return r, nil
}

// run is the timed call: one complete training run from fresh weights.
// Session join, assign and mesh set-up are inside it because a user pays
// them on every run.
func (r *rig) run() (engine.Result, error) {
	w := r.w
	if w.topology == "" {
		cfg := engine.Config{Plan: w.plan, DPU: w.dpu, LR: lr, Momentum: momentum,
			Backend: w.tensorBackend()}
		if r.o.rec != nil {
			cfg.Trace = obs.NewTracer(true)
		}
		res := engine.RunPipelined(r.wb, r.batches, cfg)
		for _, tk := range cfg.Trace.Tracks() {
			r.o.rec.addObs("engine", tk.Name(), r.o.pass, tk.Drain())
		}
		return res, nil
	}
	cfg := cluster.Config{Plan: w.plan, DPU: w.dpu, LR: lr, Momentum: momentum,
		Backend: w.backend, Topology: w.topology, Spec: w.modelSpec(),
		Data: w.dataSpec(r.o.steps), JoinTimeout: 10 * time.Second}
	if w.durable {
		cfg.MaxRestarts = 1
		cfg.LedgerDir = r.ledgerDir
		// Config.Fsync stays at its zero value, "none": disk-sync latency
		// belongs to the host, not the code.
	}
	if rec := r.o.rec; rec != nil {
		cfg.Trace = true
		cfg.TraceSink = func(track string, spans []obs.Span) {
			rec.addObs("cluster", track, r.o.pass, spans)
		}
	}
	return cluster.Run(r.coordNet, r.addrs, r.wb, r.batches, cfg)
}

// teardown stops the workers, waits for them, and deletes the ledger.
func (r *rig) teardown() {
	for _, wk := range r.workers {
		wk.Close()
	}
	r.serving.Wait()
	if r.ledgerDir != "" {
		os.RemoveAll(r.ledgerDir)
	}
}
