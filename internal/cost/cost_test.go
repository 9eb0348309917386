package cost

import (
	"math"
	"testing"

	"pipebd/internal/hw"
)

func conv(name string, inC, outC, k, s, p, h, w int, bias bool) Layer {
	return Layer{Name: name, Kind: Conv, InC: inC, OutC: outC, InH: h, InW: w,
		Kernel: k, Stride: s, Pad: p, Bias: bias}
}

func TestConvMACsKnownValues(t *testing.T) {
	// 3x3 conv, 3->64, 224x224 stride 1 pad 1: 9*3*64*224*224 MACs.
	l := conv("c", 3, 64, 3, 1, 1, 224, 224, false)
	want := 9.0 * 3 * 64 * 224 * 224
	if l.MACs() != want {
		t.Fatalf("MACs = %v, want %v", l.MACs(), want)
	}
	if l.OutH() != 224 || l.OutW() != 224 {
		t.Fatalf("out dims = %dx%d", l.OutH(), l.OutW())
	}
}

func TestStrideHalvesSpatial(t *testing.T) {
	l := conv("c", 8, 8, 3, 2, 1, 32, 32, false)
	if l.OutH() != 16 || l.OutW() != 16 {
		t.Fatalf("stride-2 out = %dx%d, want 16x16", l.OutH(), l.OutW())
	}
}

func TestDWConvMACs(t *testing.T) {
	l := Layer{Kind: DWConv, InC: 32, OutC: 32, InH: 10, InW: 10, Kernel: 3, Stride: 1, Pad: 1}
	want := 9.0 * 32 * 100
	if l.MACs() != want {
		t.Fatalf("DW MACs = %v, want %v", l.MACs(), want)
	}
}

func TestLinearParamAndMACs(t *testing.T) {
	l := Layer{Kind: Linear, InC: 512, OutC: 10, InH: 1, InW: 1, Bias: true}
	if l.MACs() != 5120 {
		t.Fatalf("Linear MACs = %v", l.MACs())
	}
	if l.ParamCount() != 512*10+10 {
		t.Fatalf("Linear params = %v", l.ParamCount())
	}
}

func TestParamCounts(t *testing.T) {
	cases := []struct {
		l    Layer
		want int64
	}{
		{conv("c", 3, 64, 3, 1, 1, 8, 8, true), 3*64*9 + 64},
		{conv("c", 3, 64, 3, 1, 1, 8, 8, false), 3 * 64 * 9},
		{Layer{Kind: DWConv, InC: 16, OutC: 16, Kernel: 3, Stride: 1, Pad: 1, InH: 8, InW: 8}, 16 * 9},
		{Layer{Kind: BatchNorm, InC: 32, OutC: 32, InH: 8, InW: 8}, 64},
		{Layer{Kind: Act, InC: 32, OutC: 32, InH: 8, InW: 8}, 0},
		{Layer{Kind: Pool, InC: 32, OutC: 32, InH: 8, InW: 8, Kernel: 2}, 0},
	}
	for _, c := range cases {
		if got := c.l.ParamCount(); got != c.want {
			t.Errorf("%v params = %d, want %d", c.l.Kind, got, c.want)
		}
	}
}

func TestFwdFLOPsScalesLinearlyWithBatch(t *testing.T) {
	l := conv("c", 16, 32, 3, 1, 1, 14, 14, false)
	f1, f4 := l.FwdFLOPs(1), l.FwdFLOPs(4)
	if math.Abs(f4-4*f1) > 1e-6 {
		t.Fatalf("FLOPs not linear in batch: %v vs 4*%v", f4, f1)
	}
}

func TestComputeScaleAffectsFLOPsNotMACs(t *testing.T) {
	l := conv("c", 16, 32, 3, 1, 1, 14, 14, false)
	scaled := l
	scaled.ComputeScale = 0.5
	if scaled.MACs() != l.MACs() {
		t.Fatal("MACs must describe architecture, not schedule")
	}
	if math.Abs(scaled.FwdFLOPs(8)-0.5*l.FwdFLOPs(8)) > 1e-6 {
		t.Fatal("FwdFLOPs must honour ComputeScale")
	}
}

func TestActivationBytes(t *testing.T) {
	l := conv("c", 3, 64, 3, 2, 1, 32, 32, false)
	if got := l.InBytes(2); got != 4*2*3*32*32 {
		t.Fatalf("InBytes = %d", got)
	}
	if got := l.OutBytes(2); got != 4*2*64*16*16 {
		t.Fatalf("OutBytes = %d", got)
	}
	lin := Layer{Kind: Linear, InC: 100, OutC: 10, InH: 1, InW: 1}
	if got := lin.OutBytes(3); got != 4*3*10 {
		t.Fatalf("Linear OutBytes = %d", got)
	}
}

func testBlock() Block {
	l1 := conv("c1", 3, 16, 3, 1, 1, 8, 8, false)
	l2 := Layer{Name: "bn", Kind: BatchNorm, InC: 16, OutC: 16, InH: 8, InW: 8}
	l3 := Layer{Name: "act", Kind: Act, InC: 16, OutC: 16, InH: 8, InW: 8}
	l4 := conv("c2", 16, 32, 3, 2, 1, 8, 8, false)
	return Block{Name: "b", Layers: []Layer{l1, l2, l3, l4}}
}

func TestBlockAggregation(t *testing.T) {
	b := testBlock()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	wantMACs := b.Layers[0].MACs() + b.Layers[3].MACs()
	if b.MACs() != wantMACs {
		t.Fatalf("block MACs = %v, want %v", b.MACs(), wantMACs)
	}
	if b.ParamCount() != b.Layers[0].ParamCount()+b.Layers[1].ParamCount()+b.Layers[3].ParamCount() {
		t.Fatal("block params wrong")
	}
	if b.InBytes(1) != 4*3*64 {
		t.Fatalf("block InBytes = %d", b.InBytes(1))
	}
	if b.OutBytes(1) != 4*32*16 {
		t.Fatalf("block OutBytes = %d", b.OutBytes(1))
	}
	// Max activation is the 16x8x8 intermediate (4096B/sample), larger
	// than input (768B) and output (2048B).
	if b.MaxActBytes(1) != 4*16*64 {
		t.Fatalf("block MaxActBytes = %d", b.MaxActBytes(1))
	}
}

func TestBlockValidateCatchesShapeBreak(t *testing.T) {
	b := testBlock()
	b.Layers[3].InC = 99
	if err := b.Validate(); err == nil {
		t.Fatal("Validate should catch channel mismatch")
	}
	// BranchStart suspends the check.
	b.Layers[3].BranchStart = true
	if err := b.Validate(); err != nil {
		t.Fatalf("BranchStart should suspend continuity: %v", err)
	}
}

func TestNetworkAggregation(t *testing.T) {
	n := Network{Name: "n", Blocks: []Block{testBlock()}}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	empty := Network{Name: "e", Blocks: []Block{{Name: "x"}}}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty block must fail validation")
	}
}

func TestTimeModelRooflineShape(t *testing.T) {
	g := hw.RTXA6000()
	// A fat 1x1 conv at tiny spatial size is compute-bound; a depthwise
	// conv at huge spatial size is bandwidth-bound. Effective FLOP/s of
	// the former must be far higher.
	fat := conv("fat", 512, 512, 1, 1, 0, 7, 7, false)
	dw := Layer{Kind: DWConv, InC: 32, OutC: 32, InH: 112, InW: 112, Kernel: 3, Stride: 1, Pad: 1}
	batch := 256
	fatEff := fat.FwdFLOPs(batch) / LayerFwdTime(g, fat, batch)
	dwEff := dw.FwdFLOPs(batch) / LayerFwdTime(g, dw, batch)
	if fatEff < 10*dwEff {
		t.Fatalf("depthwise at large spatial should be far below compute roof: fat %.3g dw %.3g", fatEff, dwEff)
	}
}

func TestBlockTimesPositiveAndAdditive(t *testing.T) {
	g := hw.RTXA6000()
	b := testBlock()
	fwd := BlockFwdTime(g, b, 32)
	bwd := BlockBwdTime(g, b, 32)
	if fwd <= 0 || bwd <= 0 {
		t.Fatal("times must be positive")
	}
	var layers float64
	for _, l := range b.Layers {
		layers += LayerFwdTime(g, l, 32)
	}
	if math.Abs(fwd-layers) > 1e-12 {
		t.Fatal("block time must be the sum of its layers'")
	}
	if bwd <= fwd {
		t.Fatal("backward should cost more than forward")
	}
}

func TestLargerBatchAmortizesLaunches(t *testing.T) {
	g := hw.RTXA6000()
	b := testBlock()
	train := func(batch int) float64 { return BlockFwdTime(g, b, batch) + BlockBwdTime(g, b, batch) }
	perSample64 := train(64) / 64
	perSample512 := train(512) / 512
	if perSample512 >= perSample64 {
		t.Fatalf("per-sample time must shrink with batch: %v vs %v", perSample512, perSample64)
	}
}

func TestComputeScaleScalesTime(t *testing.T) {
	g := hw.RTXA6000()
	l := conv("c", 64, 64, 3, 1, 1, 28, 28, false)
	half := l
	half.ComputeScale = 0.5
	full := LayerFwdTime(g, l, 64)
	got := LayerFwdTime(g, half, 64)
	if math.Abs(got-full/2) > 1e-9 {
		t.Fatalf("scaled time = %v, want %v", got, full/2)
	}
}

func TestUpdateTimeGrowsWithParams(t *testing.T) {
	g := hw.RTXA6000()
	small := Block{Layers: []Layer{conv("c", 8, 8, 3, 1, 1, 4, 4, false)}}
	big := Block{Layers: []Layer{conv("c", 512, 512, 3, 1, 1, 4, 4, false)}}
	if UpdateTime(g, small) >= UpdateTime(g, big) {
		t.Fatal("update time must grow with parameter count")
	}
}

func TestMemoryEstimates(t *testing.T) {
	b := testBlock()
	tm := TeacherBlockMemory(b, 32)
	sm := StudentBlockMemory(b, 32)
	if tm <= 0 || sm <= 0 {
		t.Fatal("memory must be positive")
	}
	if sm <= tm {
		t.Fatal("training memory must exceed inference memory")
	}
	// Student memory grows linearly-ish with batch (activations dominate).
	if StudentBlockMemory(b, 64) <= sm {
		t.Fatal("student memory must grow with batch")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{Conv, DWConv, Linear, BatchNorm, Act, Pool, GlobalPool, Add, Flatten}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("kind %d has empty/duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}
