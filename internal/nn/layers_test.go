package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipebd/internal/tensor"
)

func TestConv2dOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		inC, outC, k, s, p int
		n, h, w            int
		wantH, wantW       int
	}{
		{3, 16, 3, 1, 1, 2, 32, 32, 32, 32},
		{3, 16, 3, 2, 1, 2, 32, 32, 16, 16},
		{8, 4, 1, 1, 0, 1, 7, 7, 7, 7},
		{3, 64, 7, 2, 3, 1, 224, 224, 112, 112},
	}
	for _, c := range cases {
		l := NewConv2d(rng, c.inC, c.outC, c.k, c.s, c.p, true)
		out := l.Forward(tensor.New(c.n, c.inC, c.h, c.w), false)
		want := []int{c.n, c.outC, c.wantH, c.wantW}
		for i, d := range want {
			if out.Shape()[i] != d {
				t.Fatalf("conv shape = %v, want %v", out.Shape(), want)
			}
		}
	}
}

func TestConv2dLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewConv2d(rng, 2, 3, 3, 1, 1, false) // no bias: strictly linear
	f := func(scale float32) bool {
		if math.IsNaN(float64(scale)) || math.IsInf(float64(scale), 0) {
			return true
		}
		scale = float32(math.Mod(float64(scale), 8))
		x := tensor.Rand(rng, -1, 1, 1, 2, 5, 5)
		y1 := l.Forward(x, false)
		tensor.ScaleInPlace(y1, scale)
		tensor.ScaleInPlace(x, scale)
		y2 := l.Forward(x, false)
		return y1.AllClose(y2, 1e-3, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDWConvPreservesChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewDWConv2d(rng, 5, 3, 1, 1, false)
	out := l.Forward(tensor.New(2, 5, 8, 8), false)
	if out.Shape()[1] != 5 {
		t.Fatalf("DWConv channels = %d, want 5", out.Shape()[1])
	}
}

func TestDWConvChannelIndependenceProperty(t *testing.T) {
	// Depthwise conv must not mix channels: zeroing channel 1's input
	// must leave channel 0's output unchanged.
	rng := rand.New(rand.NewSource(4))
	l := NewDWConv2d(rng, 2, 3, 1, 1, false)
	x := tensor.Rand(rng, -1, 1, 1, 2, 6, 6)
	full := l.Forward(x, false)
	x2 := x.Clone()
	for i := 36; i < 72; i++ { // zero channel 1
		x2.Data()[i] = 0
	}
	part := l.Forward(x2, false)
	for i := 0; i < 36; i++ { // channel 0 plane of output
		if full.Data()[i] != part.Data()[i] {
			t.Fatal("depthwise conv mixed channels")
		}
	}
}

func TestBatchNormNormalizesTrainBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewBatchNorm2d(2)
	x := tensor.Rand(rng, 3, 9, 8, 2, 4, 4) // mean ~6, far from 0
	y := l.Forward(x, true)
	// With gamma=1, beta=0 each channel of y should be ~N(0,1).
	n, spatial := 8, 16
	for ci := 0; ci < 2; ci++ {
		var sum, sq float64
		for ni := 0; ni < n; ni++ {
			base := (ni*2 + ci) * spatial
			for i := 0; i < spatial; i++ {
				v := float64(y.Data()[base+i])
				sum += v
				sq += v * v
			}
		}
		count := float64(n * spatial)
		mean := sum / count
		variance := sq/count - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d not normalized: mean %v var %v", ci, mean, variance)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	l := NewBatchNorm2d(1)
	// With default running stats (mean 0, var 1), eval is near-identity.
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	y := l.Forward(x, false)
	if !y.AllClose(x, 1e-3, 1e-3) {
		t.Fatalf("eval BN with unit stats should be ~identity, got %v", y)
	}
}

func TestReLU6Clamps(t *testing.T) {
	l := &ReLU{Cap: 6}
	x := tensor.FromSlice([]float32{-3, 0, 2, 6, 9}, 5)
	y := l.Forward(x, false)
	want := tensor.FromSlice([]float32{0, 0, 2, 6, 6}, 5)
	if !y.Equal(want) {
		t.Fatalf("ReLU6 = %v, want %v", y, want)
	}
}

func TestReLUNonNegativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewReLU()
	for trial := 0; trial < 20; trial++ {
		x := tensor.Rand(rng, -10, 10, 4, 4)
		y := l.Forward(x, false)
		for _, v := range y.Data() {
			if v < 0 {
				t.Fatal("ReLU output must be non-negative")
			}
		}
	}
}

func TestGlobalAvgPoolKnownValues(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	y := NewGlobalAvgPool2d().Forward(x, false)
	want := tensor.FromSlice([]float32{2.5, 25}, 1, 2, 1, 1)
	if !y.Equal(want) {
		t.Fatalf("GlobalAvgPool = %v, want %v", y, want)
	}
}

func TestResidualIdentityWithZeroBody(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	body := NewConv2d(rng, 2, 2, 3, 1, 1, false)
	body.Weight.Value.Zero()
	r := NewResidual(body)
	x := tensor.Rand(rng, -1, 1, 1, 2, 4, 4)
	if !r.Forward(x, false).Equal(x) {
		t.Fatal("residual with zero body must be identity")
	}
}

func TestSequentialParamsCollected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := NewSequential(
		NewConv2d(rng, 1, 2, 3, 1, 1, true), // 2 params
		NewBatchNorm2d(2),                   // 2 params
		NewReLU(),                           // 0
		NewFlatten(),                        // 0
	)
	if got := len(s.Params()); got != 4 {
		t.Fatalf("Sequential.Params count = %d, want 4", got)
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layers := map[string]Layer{
		"Conv2d":    NewConv2d(rng, 1, 1, 3, 1, 1, false),
		"DWConv2d":  NewDWConv2d(rng, 1, 3, 1, 1, false),
		"Linear":    NewLinear(rng, 2, 2, false),
		"BatchNorm": NewBatchNorm2d(1),
		"ReLU":      NewReLU(),
		"GAP":       NewGlobalAvgPool2d(),
		"Flatten":   NewFlatten(),
	}
	for name, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s.Backward before Forward did not panic", name)
				}
			}()
			l.Backward(tensor.New(1, 1, 2, 2))
		}()
	}
}
