package cluster

import (
	"testing"

	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
)

// transformerData is the token recipe of steps batches for the
// transformer workbench; transformerBatches evaluates it.
func transformerData(steps, batch int) wire.DataSpec {
	cfg := distill.DefaultTransformerConfig()
	return wire.DataSpec{Seed: 7, N: steps * batch, Classes: cfg.Classes, Batch: batch,
		Kind: "tokens", L: cfg.SeqLen, Vocab: cfg.Vocab}
}

func transformerBatches(steps, batch int) []dataset.Batch {
	return mustBatches(transformerData(steps, batch))
}

// TestClusterTransformerSpec closes the tentpole's equivalence chain: the
// transformer workbench trained (a) in-process, (b) on a hub-topology
// loopback cluster, and (c) on a peer-to-peer ring over real TCP must
// produce bit-identical loss trajectories and student weights. Combined
// with the engine suite pinning RunPipelined to RunSequential, this is
// serial ≡ parallel ≡ hub ≡ ring for encoder blocks.
func TestClusterTransformerSpec(t *testing.T) {
	cfg := distill.DefaultTransformerConfig()
	batches := transformerBatches(5, 8)
	p := hybridPlan()

	ref := distill.NewTransformerWorkbench(cfg)
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	hubNet := transport.NewLoopback()
	hubAddrs := startWorkers(t, hubNet, 2, WorkerConfig{Sessions: 1})
	hubW := distill.NewTransformerWorkbench(cfg)
	hubRes, err := Run(hubNet, hubAddrs, hubW, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Spec: TransformerSpec(cfg), Data: transformerData(5, 8)})
	if err != nil {
		t.Fatalf("hub transformer run: %v", err)
	}
	lossesBitIdentical(t, "transformer hub vs in-process", hubRes, refRes)
	weightsBitIdentical(t, "transformer hub vs in-process", hubW, ref)

	tcpNet := transport.TCP{}
	ringAddrs := ringWorkers(t, tcpNet, 3, WorkerConfig{Sessions: 1})
	ringW := distill.NewTransformerWorkbench(cfg)
	ringRes, err := Run(tcpNet, ringAddrs, ringW, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Topology: "ring", Spec: TransformerSpec(cfg), Data: transformerData(5, 8)})
	if err != nil {
		t.Fatalf("tcp ring transformer run: %v", err)
	}
	lossesBitIdentical(t, "transformer tcp ring vs in-process", ringRes, refRes)
	weightsBitIdentical(t, "transformer tcp ring vs in-process", ringW, ref)
}

// TestRingTransformerDataRecipe: the token-sequence data recipe
// regenerates the batch schedule on ring workers without shipping
// tensors, bit-identical to the in-process run; a recipe whose kind
// evaluates to different batches is rejected up front.
func TestRingTransformerDataRecipe(t *testing.T) {
	const steps, batch = 4, 8
	cfg := distill.DefaultTransformerConfig()
	batches := transformerBatches(steps, batch)
	spec := wire.DataSpec{Seed: 7, N: steps * batch, Classes: cfg.Classes, Batch: batch,
		Kind: "tokens", L: cfg.SeqLen, Vocab: cfg.Vocab}
	p := hybridPlan()

	ref := distill.NewTransformerWorkbench(cfg)
	refRes := engine.RunPipelined(ref, batches, engine.Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9})

	net := transport.NewLoopback()
	addrs := ringWorkers(t, net, 3, WorkerConfig{Sessions: 1})
	w := distill.NewTransformerWorkbench(cfg)
	res, err := Run(net, addrs, w, batches, Config{Plan: p, DPU: true,
		LR: 0.05, Momentum: 0.9, Topology: "ring", Data: spec,
		Spec: TransformerSpec(cfg)})
	if err != nil {
		t.Fatalf("ring transformer data-recipe run: %v", err)
	}
	lossesBitIdentical(t, "transformer data recipe", res, refRes)
	weightsBitIdentical(t, "transformer data recipe", w, ref)

	// An image-kind recipe cannot reproduce token batches.
	bad := spec
	bad.Kind = ""
	bad.C, bad.H, bad.W = 1, cfg.SeqLen, 1
	w2 := distill.NewTransformerWorkbench(cfg)
	if _, err := Run(transport.NewLoopback(), []string{"unused"}, w2, batches,
		Config{Plan: p, DPU: true, LR: 0.05, Momentum: 0.9,
			Topology: "ring", Data: bad, Spec: TransformerSpec(cfg)}); err == nil {
		t.Fatal("mismatched data recipe accepted")
	}
}
