package model

import (
	"fmt"

	"pipebd/internal/dataset"
)

// Workload bundles a blockwise-distillation training job: a pretrained
// teacher, the student under training, and the dataset. Teacher and
// student must agree on block count and unit count, with aligned
// boundaries (identical activation geometry at every boundary), which is
// what lets teacher activations feed student blocks directly.
type Workload struct {
	Name    string
	Teacher Model
	Student Model
	Data    dataset.Spec
	// LSAtBlockGranularity selects the task granularity for the LS
	// baseline: NAS distillation losses are defined per DNA block, so a
	// block is the smallest independently trainable task; compression
	// replaces individual layers, so LS packs layer units. Six blocks on
	// four devices is the paper's "insufficient layers" imbalance.
	LSAtBlockGranularity bool
}

// AtLSGranularity returns the workload cut into the tasks the LS baseline
// packs — itself for NAS workloads, one block per layer unit for
// compression workloads — so that an LS schedule's block numbers count
// tasks.
func (w Workload) AtLSGranularity() Workload {
	if !w.LSAtBlockGranularity {
		w.Teacher.Net.Blocks, w.Student.Net.Blocks = w.Teacher.Units, w.Student.Units
	}
	return w
}

// NumBlocks returns the (shared) block count.
func (w Workload) NumBlocks() int { return len(w.Teacher.Net.Blocks) }

// Validate checks teacher/student alignment.
func (w Workload) Validate() error {
	if err := w.Teacher.Net.Validate(); err != nil {
		return err
	}
	if err := w.Student.Net.Validate(); err != nil {
		return err
	}
	if tb, sb := len(w.Teacher.Net.Blocks), len(w.Student.Net.Blocks); tb != sb {
		return fmt.Errorf("model: workload %q teacher has %d blocks, student %d", w.Name, tb, sb)
	}
	if tu, su := len(w.Teacher.Units), len(w.Student.Units); tu != su {
		return fmt.Errorf("model: workload %q teacher has %d units, student %d", w.Name, tu, su)
	}
	for i := range w.Teacher.Net.Blocks {
		tIn := w.Teacher.Net.Blocks[i].InBytes(1)
		sIn := w.Student.Net.Blocks[i].InBytes(1)
		if tIn != sIn {
			return fmt.Errorf("model: workload %q block %d teacher input %dB != student input %dB",
				w.Name, i, tIn, sIn)
		}
	}
	return nil
}

// NAS returns the neural-architecture-search workload: MobileNetV2
// teacher distilling into a ProxylessNAS supernet student (the DNA [9]
// setup the paper evaluates).
func NAS(imagenet bool) Workload {
	classes := 10
	data := dataset.CIFAR10()
	name := "nas-cifar10"
	if imagenet {
		classes = 1000
		data = dataset.ImageNet()
		name = "nas-imagenet"
	}
	w := Workload{
		Name:                 name,
		Teacher:              MobileNetV2(imagenet, classes),
		Student:              ProxylessNASSupernet(imagenet, classes),
		Data:                 data,
		LSAtBlockGranularity: true,
	}
	if err := w.Validate(); err != nil {
		panic(err)
	}
	return w
}

// Compression returns the model-compression workload: VGG-16 teacher
// distilling into a DS-Conv student (the Blakeney et al. [7] setup).
func Compression(imagenet bool) Workload {
	classes := 10
	data := dataset.CIFAR10()
	name := "compression-cifar10"
	if imagenet {
		classes = 1000
		data = dataset.ImageNet()
		name = "compression-imagenet"
	}
	w := Workload{
		Name:    name,
		Teacher: VGG16(imagenet, classes),
		Student: DSConvStudent(imagenet, classes),
		Data:    data,
	}
	if err := w.Validate(); err != nil {
		panic(err)
	}
	return w
}

// ByName returns the workload the command lines name.
func ByName(name string) (Workload, error) {
	switch name {
	case "nas-cifar10":
		return NAS(false), nil
	case "nas-imagenet":
		return NAS(true), nil
	case "compression-cifar10":
		return Compression(false), nil
	case "compression-imagenet":
		return Compression(true), nil
	case "transformer-tokens":
		return TransformerDistill(), nil
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// AllWorkloads returns the four workload configurations of Table II in
// the paper's order.
func AllWorkloads() []Workload {
	return []Workload{NAS(false), NAS(true), Compression(false), Compression(true)}
}
