package dataset

import (
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

func TestSpecsSane(t *testing.T) {
	for _, s := range []Spec{CIFAR10(), ImageNet()} {
		if s.NumTrain <= 0 || s.StorageBytes <= 0 || s.DecodeCPUSeconds < 0 {
			t.Fatalf("%s: invalid spec %+v", s.Name, s)
		}
	}
	if CIFAR10().NumTrain != 50000 {
		t.Fatal("CIFAR-10 should have 50k training samples")
	}
	in := ImageNet()
	if in.Height != 224 || in.Width != 224 {
		t.Fatal("ImageNet samples should decode to 224x224")
	}
	if in.StorageBytes < 50*1024 || in.StorageBytes > 200*1024 {
		t.Fatalf("ImageNet storage bytes implausible: %d", in.StorageBytes)
	}
}

func TestStepsPerEpoch(t *testing.T) {
	s := CIFAR10()
	if got := s.StepsPerEpoch(256); got != 195 {
		t.Fatalf("StepsPerEpoch(256) = %d, want 195", got)
	}
	if got := s.StepsPerEpoch(50000); got != 1 {
		t.Fatalf("StepsPerEpoch(full) = %d, want 1", got)
	}
	// Batch larger than the dataset still yields one step.
	if got := s.StepsPerEpoch(1 << 20); got != 1 {
		t.Fatalf("StepsPerEpoch(huge) = %d, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive batch")
		}
	}()
	s.StepsPerEpoch(0)
}

func TestNewRandomDeterminism(t *testing.T) {
	a := NewRandom(rand.New(rand.NewSource(5)), 10, 1, 4, 4, 3)
	b := NewRandom(rand.New(rand.NewSource(5)), 10, 1, 4, 4, 3)
	if !a.X.Equal(b.X) {
		t.Fatal("same seed must give same data")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed must give same labels")
		}
	}
	for _, l := range a.Labels {
		if l < 0 || l >= 3 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestBatchesDropLastAndDeterministic(t *testing.T) {
	s := NewRandom(rand.New(rand.NewSource(6)), 10, 1, 2, 2, 2)
	batches := s.Batches(4)
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2 (drop-last)", len(batches))
	}
	for _, b := range batches {
		if b.X.Shape()[0] != 4 || len(b.Labels) != 4 {
			t.Fatalf("bad batch shape %v / %d labels", b.X.Shape(), len(b.Labels))
		}
	}
	// First batch must be samples 0..3 in order.
	per := 4
	for i := 0; i < 4*per; i++ {
		if batches[0].X.Data()[i] != s.X.Data()[i] {
			t.Fatal("batches must preserve sample order")
		}
	}
	// Mutating a batch must not corrupt the dataset (copy semantics).
	batches[0].X.Fill(0)
	if s.X.Data()[0] == 0 && s.X.Data()[1] == 0 {
		t.Fatal("Batches must copy data")
	}
}

func TestSliceIsolation(t *testing.T) {
	s := NewRandom(rand.New(rand.NewSource(9)), 6, 2, 2, 2, 2)
	b := s.slice(2, 4)
	if b.Shape()[0] != 2 {
		t.Fatalf("slice batch = %d, want 2", b.Shape()[0])
	}
	orig := s.X.At(2, 0, 0, 0)
	b.Set(orig+42, 0, 0, 0, 0)
	if s.X.At(2, 0, 0, 0) != orig {
		t.Fatal("slice must copy, not alias")
	}
	_ = tensor.New(1) // keep tensor import meaningful if asserts change
}
