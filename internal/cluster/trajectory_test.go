package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/sched"
	"pipebd/internal/tensor"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/*.digest from the current trajectories")

// tensorTier is the tensor package's kernel tier (tensor.tier, a
// kernelTier: 0 generic, 1 AVX, 2 AVX-512), so the trajectory digests can
// be taken on every tier the host has.
//
//go:linkname tensorTier pipebd/internal/tensor.tier
var tensorTier uint8

// trajectoryDigest is a run's trajectory as two sha256 hashes in hex, one
// line each: every per-block loss (float64 bits), block by block, then
// every final student weight (float32 bits), block by block and parameter
// by parameter. Apart, a change that moves only the reported losses shows
// as such: its digest diff leaves the weights line alone.
func trajectoryDigest(res engine.Result, w *distill.Workbench) string {
	losses, weights := sha256.New(), sha256.New()
	var buf [8]byte
	for _, row := range res.Loss {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			losses.Write(buf[:])
		}
	}
	for b := 0; b < w.NumBlocks(); b++ {
		for _, p := range w.StudentParams(b) {
			for _, v := range p.Value.Data() {
				binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
				weights.Write(buf[:4])
			}
		}
	}
	return hex.EncodeToString(losses.Sum(nil)) + "\n" + hex.EncodeToString(weights.Sum(nil))
}

// TestTrajectoryDigests pins the engine's training trajectory itself,
// not just the agreement of its executors: every per-block loss and the
// final student weights of three model shapes, hashed apart, must equal
// the two lines committed in testdata/<shape>.digest (regenerate with
// -update).
// Each shape runs on the serial and the parallel backend, on every kernel
// tier the host has, at GOMAXPROCS 1 and 4; the conv shape also runs
// through Run over loopback, under the hub without DPU (every step
// through the coordinator's barrier) and under the ring with DPU. Every
// row must produce the one digest, so a change that moved every executor
// together still fails here.
func TestTrajectoryDigests(t *testing.T) {
	const steps, batch = 2, 4
	conv := distill.TinyConfig{Seed: 1, Blocks: 4, Channels: 16, Height: 16, Width: 16}
	xfmr := distill.TransformerConfig{Seed: 1, Blocks: 4, Dim: 64, Heads: 4, TeacherFF: 256,
		StudentFF: 64, SeqLen: 32, Vocab: 512, Classes: 8, Temp: 2}
	super := distill.DefaultSupernetConfig()
	images := func(h, w int) wire.DataSpec {
		return wire.DataSpec{Seed: 2, N: steps * batch, Batch: batch, C: 3, H: h, W: w, Classes: 4}
	}
	shapes := []struct {
		name  string
		spec  wire.ModelSpec // the workbench; the conv shape's cluster rows send it to the workers
		super bool           // the supernet, which has no wire spec
		data  wire.DataSpec
		plan  sched.Plan
		dpu   bool
	}{
		// conv_inproc's model and plan.
		{name: "conv", spec: TinySpec(conv), data: images(16, 16), plan: hybridPlan(), dpu: true},
		{name: "supernet", super: true, data: images(super.Height, super.Width),
			plan: plan("split-head", g([]int{0, 1}, []int{0}), g([]int{2}, []int{1, 2}))},
		// xfmr_inproc's model and plan.
		{name: "xfmr", spec: TransformerSpec(xfmr),
			data: wire.DataSpec{Kind: "tokens", Seed: 2, N: steps * batch, Batch: batch, L: xfmr.SeqLen, Vocab: xfmr.Vocab, Classes: xfmr.Classes},
			plan: plan("tr2", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3})), dpu: true},
	}
	defer func(tier uint8, procs int) {
		tensorTier = tier
		runtime.GOMAXPROCS(procs)
	}(tensorTier, runtime.GOMAXPROCS(0))
	host := tensorTier
	parallel := map[int]tensor.Backend{1: tensor.NewParallel(1), 4: tensor.NewParallel(4)}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			build := func() *distill.Workbench {
				if sh.super {
					return distill.NewTinySupernetWorkbench(super)
				}
				w, err := BuildWorkbench(sh.spec)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			batches, err := sh.data.Batches()
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.Config{Plan: sh.plan, DPU: sh.dpu, LR: 0.05, Momentum: 0.9}
			rows := map[string]string{}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				for _, be := range []tensor.Backend{tensor.Serial{}, parallel[procs]} {
					for tier := uint8(0); tier <= host; tier++ {
						tensorTier = tier
						w := build()
						w.SetBackend(be)
						res := engine.RunPipelined(w, batches, cfg)
						rows[fmt.Sprintf("%s tier %d GOMAXPROCS %d", be.Name(), tier, procs)] = trajectoryDigest(res, w)
					}
				}
			}
			tensorTier = host
			if !sh.super && sh.spec.Name == "tiny" {
				for _, topo := range []string{"hub", "ring"} {
					net := transport.NewLoopback()
					addrs := startWorkers(t, net, 3, WorkerConfig{Sessions: 1, Dial: net})
					w := build()
					res, err := Run(net, addrs, w, batches, Config{Plan: sh.plan, DPU: topo == "ring",
						LR: cfg.LR, Momentum: cfg.Momentum, Backend: "serial", Topology: topo, Data: sh.data, Spec: sh.spec})
					if err != nil {
						t.Fatalf("%s cluster run: %v", topo, err)
					}
					rows["cluster "+topo] = trajectoryDigest(res, w)
				}
			}
			path := filepath.Join("testdata", sh.name+".digest")
			var want string
			for _, got := range rows {
				want = got
			}
			if *updateDigests {
				if err := os.WriteFile(path, []byte(want+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				want = strings.TrimSpace(string(raw))
			}
			for _, row := range slices.Sorted(maps.Keys(rows)) {
				if got := rows[row]; got != want {
					t.Errorf("%s: losses, weights digests\n%s\nwant (%s)\n%s", row, got, path, want)
				}
			}
		})
	}
}
