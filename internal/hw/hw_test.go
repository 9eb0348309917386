package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKernelTimeMonotonicInFLOPs(t *testing.T) {
	g := RTXA6000()
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1e15)), math.Abs(math.Mod(b, 1e15))
		lo, hi := math.Min(a, b), math.Max(a, b)
		return g.KernelTime(lo, 0) <= g.KernelTime(hi, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKernelTimeMonotonicInBytes(t *testing.T) {
	g := RTXA6000()
	f := func(a, b int64) bool {
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return g.KernelTime(0, lo) <= g.KernelTime(0, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKernelTimeHasLaunchFloor(t *testing.T) {
	g := RTXA6000()
	if got := g.KernelTime(0, 0); got != g.LaunchOverhead {
		t.Fatalf("empty kernel time = %v, want launch overhead %v", got, g.LaunchOverhead)
	}
}

func TestKernelTimeRoofline(t *testing.T) {
	g := GPU{PeakFLOPS: 1e12, KernelEff: 1, MemBandwidth: 1e11, LaunchOverhead: 0, MemBytes: 1}
	// Compute-bound: 1e12 FLOPs, tiny traffic -> 1 s.
	if got := g.KernelTime(1e12, 10); math.Abs(got-1) > 1e-9 {
		t.Fatalf("compute-bound time = %v, want 1", got)
	}
	// Memory-bound: tiny FLOPs, 1e11 bytes -> 1 s.
	if got := g.KernelTime(10, 1e11); math.Abs(got-1) > 1e-9 {
		t.Fatalf("memory-bound time = %v, want 1", got)
	}
	// Balanced point takes max, not sum.
	if got := g.KernelTime(1e12, 1e11); math.Abs(got-1) > 1e-9 {
		t.Fatalf("balanced time = %v, want 1 (max, not sum)", got)
	}
}

func TestKernelTimePanicsOnNegative(t *testing.T) {
	for _, probe := range []func(){
		func() { RTXA6000().KernelTime(-1, 0) },
		func() { RTXA6000().KernelTime(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			probe()
		}()
	}
}

func TestA6000FasterButMoreLaunchBound(t *testing.T) {
	a, turing := RTXA6000(), RTX2080Ti()
	// Big kernels: A6000 wins on raw compute.
	if a.KernelTime(1e12, 0) >= turing.KernelTime(1e12, 0) {
		t.Fatal("A6000 must be faster on large kernels")
	}
	// The ratio of launch overhead to compute time must be higher on the
	// A6000 — this drives the Fig. 5 schedule divergence.
	small := 1e7
	ra := a.LaunchOverhead / (small / (a.PeakFLOPS * a.KernelEff))
	rt := turing.LaunchOverhead / (small / (turing.PeakFLOPS * turing.KernelEff))
	if ra <= rt {
		t.Fatalf("A6000 should be relatively more launch-bound: %v vs %v", ra, rt)
	}
	// Compute:bandwidth ratio is also higher on the A6000, so
	// bandwidth-bound blocks stick out more there (Fig. 5 story).
	ia := a.PeakFLOPS * a.KernelEff / a.MemBandwidth
	it := turing.PeakFLOPS * turing.KernelEff / turing.MemBandwidth
	if ia <= it {
		t.Fatalf("A6000 should have higher compute:bandwidth ratio: %v vs %v", ia, it)
	}
}

func TestTransferTime(t *testing.T) {
	l := Link{BandwidthBytes: 1e9, Latency: 1e-5}
	if got := l.TransferTime(0); got != 1e-5 {
		t.Fatalf("zero transfer = %v, want latency", got)
	}
	if got := l.TransferTime(1e9); math.Abs(got-(1+1e-5)) > 1e-12 {
		t.Fatalf("1GB transfer = %v, want ~1s", got)
	}
}

func TestAllReduceTime(t *testing.T) {
	l := Link{BandwidthBytes: 1e9, Latency: 0}
	// Ring all-reduce of n bytes over k devices moves 2(k-1)/k · n bytes.
	n := int64(1e9)
	got := l.AllReduceTime(n, 4)
	want := 2.0 * 3.0 / 4.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("AllReduceTime = %v, want %v", got, want)
	}
	if l.AllReduceTime(n, 1) != 0 {
		t.Fatal("all-reduce with one participant must be free")
	}
}

func TestAllReduceGrowsWithParticipants(t *testing.T) {
	l := PCIe4()
	prev := 0.0
	for k := 1; k <= 8; k++ {
		cur := l.AllReduceTime(100<<20, k)
		if cur < prev {
			t.Fatalf("all-reduce time must not decrease with k: k=%d %v < %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestHostLoadTimePipelined(t *testing.T) {
	h := Host{StorageBandwidth: 1e9, Cores: 10}
	// Read-bound: 1 GB at 1 GB/s = 1 s, decode 1 CPU-s / 10 cores = 0.1 s.
	if got := h.LoadTime(1e9, 1); got != 1 {
		t.Fatalf("read-bound load = %v, want 1", got)
	}
	// Decode-bound.
	if got := h.LoadTime(1e6, 50); got != 5 {
		t.Fatalf("decode-bound load = %v, want 5", got)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, s := range []System{A6000x4(), RTX2080Tix4()} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if s.NumDevices() != 4 {
			t.Fatalf("%s: want 4 devices", s.Name)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := A6000x4()
	cases := map[string]func(*System){
		"no gpus":      func(s *System) { s.GPUs = nil },
		"zero peak":    func(s *System) { s.GPUs[0].PeakFLOPS = 0 },
		"eff > 1":      func(s *System) { s.GPUs[0].KernelEff = 1.5 },
		"no bandwidth": func(s *System) { s.GPUs[0].MemBandwidth = 0 },
		"no memory":    func(s *System) { s.GPUs[0].MemBytes = 0 },
		"dead link":    func(s *System) { s.Link.BandwidthBytes = 0 },
		"no loader":    func(s *System) { s.Host.StorageBandwidth = 0 },
		"zero cores":   func(s *System) { s.Host.Cores = 0 },
	}
	for name, mutate := range cases {
		s := good
		s.GPUs = append([]GPU(nil), good.GPUs...)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate did not fail", name)
		}
	}
}

func TestHomogeneousConstructor(t *testing.T) {
	sys := Homogeneous("8x A6000", 8, RTXA6000(), PCIe4(), EPYC7302Host())
	if sys.NumDevices() != 8 {
		t.Fatalf("got %d devices, want 8", sys.NumDevices())
	}
	for _, g := range sys.GPUs {
		if g.Name != RTXA6000().Name {
			t.Fatal("devices must be identical")
		}
	}
}
