package model

import (
	"math"
	"testing"
)

// within asserts x is within frac of target.
func within(t *testing.T, what string, x, target, frac float64) {
	t.Helper()
	if math.Abs(x-target)/target > frac {
		t.Errorf("%s = %v, want within %.0f%% of %v", what, x, frac*100, target)
	}
}

// Table II fidelity checks. MobileNetV2 and VGG-16 are fully determined
// architectures, so tight tolerances apply; the student networks are our
// instantiations of under-specified architectures, so looser ones do.

func TestMobileNetV2MatchesTableII(t *testing.T) {
	cifar := MobileNetV2(false, 10)
	within(t, "MNv2-CIFAR params", float64(cifar.Net.ParamCount()), 2.24e6, 0.01)
	within(t, "MNv2-CIFAR MACs", cifar.Net.MACs(), 87.98e6, 0.01)

	imnet := MobileNetV2(true, 1000)
	within(t, "MNv2-ImageNet params", float64(imnet.Net.ParamCount()), 3.50e6, 0.01)
	within(t, "MNv2-ImageNet MACs", imnet.Net.MACs(), 300.77e6, 0.01)
}

func TestVGG16MatchesTableII(t *testing.T) {
	cifar := VGG16(false, 10)
	within(t, "VGG16-CIFAR params", float64(cifar.Net.ParamCount()), 14.72e6, 0.01)
	within(t, "VGG16-CIFAR FLOPs", 2*cifar.Net.MACs(), 0.63e9, 0.02)

	imnet := VGG16(true, 1000)
	within(t, "VGG16-ImageNet params", float64(imnet.Net.ParamCount()), 138.36e6, 0.01)
	within(t, "VGG16-ImageNet FLOPs", 2*imnet.Net.MACs(), 30.98e9, 0.02)
}

func TestProxylessFoundNearTableII(t *testing.T) {
	cifar := ProxylessNASFound(false, 10)
	within(t, "Proxyless-CIFAR params", float64(cifar.Net.ParamCount()), 1.40e6, 0.05)
	within(t, "Proxyless-CIFAR MACs", cifar.Net.MACs(), 76.10e6, 0.05)

	// The ImageNet found network is under-specified by the paper; our
	// skeleton saturates ~10% below Table II (see proxyless.go).
	imnet := ProxylessNASFound(true, 1000)
	within(t, "Proxyless-ImageNet params", float64(imnet.Net.ParamCount()), 4.22e6, 0.15)
	within(t, "Proxyless-ImageNet MACs", imnet.Net.MACs(), 420.20e6, 0.15)
}

func TestDSConvStudentNearTableII(t *testing.T) {
	cifar := DSConvStudent(false, 10)
	within(t, "DSConv-CIFAR params", float64(cifar.Net.ParamCount()), 7.25e6, 0.05)
	within(t, "DSConv-CIFAR FLOPs", 2*cifar.Net.MACs(), 0.39e9, 0.15)

	imnet := DSConvStudent(true, 1000)
	within(t, "DSConv-ImageNet params", float64(imnet.Net.ParamCount()), 138.09e6, 0.01)
	within(t, "DSConv-ImageNet FLOPs", 2*imnet.Net.MACs(), 26.15e9, 0.02)
}

func TestStudentTeacherSizeRelations(t *testing.T) {
	// Compression students and the CIFAR NAS student are smaller than
	// their teachers; the ImageNet NAS student is *larger* (Table II:
	// 420.2 M vs 300.77 M MACs) — the paper's point that small teachers
	// can train larger students.
	if s, te := ProxylessNASFound(false, 10).Net, MobileNetV2(false, 10).Net; s.MACs() >= te.MACs() {
		t.Errorf("nas-cifar10: student MACs %v >= teacher %v", s.MACs(), te.MACs())
	}
	if s, te := ProxylessNASFound(true, 1000).Net, MobileNetV2(true, 1000).Net; s.MACs() <= te.MACs() {
		t.Errorf("nas-imagenet: student MACs %v should exceed teacher %v (Table II)", s.MACs(), te.MACs())
	}
	for _, imagenet := range []bool{false, true} {
		classes := 10
		if imagenet {
			classes = 1000
		}
		s, te := DSConvStudent(imagenet, classes).Net, VGG16(imagenet, classes).Net
		if s.MACs() >= te.MACs() {
			t.Errorf("compression imagenet=%v: student MACs %v >= teacher %v", imagenet, s.MACs(), te.MACs())
		}
	}
}

func TestSixBlocksEverywhere(t *testing.T) {
	for _, w := range AllWorkloads() {
		if got := w.NumBlocks(); got != 6 {
			t.Errorf("%s: %d blocks, want 6", w.Name, got)
		}
	}
}

func TestUnitCounts(t *testing.T) {
	// MobileNet-skeleton models: stem + 17 mobile layers + head = 19.
	for _, m := range []Model{
		MobileNetV2(false, 10), MobileNetV2(true, 1000),
		ProxylessNASSupernet(false, 10), ProxylessNASFound(true, 1000),
	} {
		if got := len(m.Units); got != 19 {
			t.Errorf("%s: %d units, want 19", m.Net.Name, got)
		}
	}
	// VGG-16 family: 13 convolution units + head = 14.
	for _, m := range []Model{VGG16(false, 10), DSConvStudent(true, 1000)} {
		if got := len(m.Units); got != 14 {
			t.Errorf("%s: %d units, want 14", m.Net.Name, got)
		}
	}
}

func TestUnitsPartitionBlocks(t *testing.T) {
	// The flattened unit layers must equal the flattened block layers in
	// order (units are a refinement of blocks).
	for _, w := range AllWorkloads() {
		for _, m := range []Model{w.Teacher, w.Student} {
			var fromUnits, fromBlocks []string
			for _, u := range m.Units {
				for _, l := range u.Layers {
					fromUnits = append(fromUnits, l.Name)
				}
			}
			for _, b := range m.Net.Blocks {
				for _, l := range b.Layers {
					fromBlocks = append(fromBlocks, l.Name)
				}
			}
			if len(fromUnits) != len(fromBlocks) {
				t.Fatalf("%s: units cover %d layers, blocks %d", m.Net.Name, len(fromUnits), len(fromBlocks))
			}
			for i := range fromUnits {
				if fromUnits[i] != fromBlocks[i] {
					t.Fatalf("%s: layer order diverges at %d: %s vs %s", m.Net.Name, i, fromUnits[i], fromBlocks[i])
				}
			}
		}
	}
}

func TestWorkloadsValidate(t *testing.T) {
	for _, w := range AllWorkloads() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestImageNetBlock0DominatesTeacherActivations(t *testing.T) {
	// The paper's Fig. 5/7 narrative: ImageNet's first block carries by
	// far the largest feature maps. Its max activation must dominate
	// every later block's.
	m := MobileNetV2(true, 1000)
	first := m.Net.Blocks[0].MaxActBytes(256)
	for i, b := range m.Net.Blocks[1:] {
		if b.MaxActBytes(256) >= first {
			t.Errorf("block %d max activation %d >= block 0's %d", i+1, b.MaxActBytes(256), first)
		}
	}
}

func TestSupernetHoldsAllCandidateParams(t *testing.T) {
	// The supernet carries every candidate's weights, so it must be much
	// larger than the teacher, while its expected per-step compute stays
	// comparable (candidates are sampled, ComputeScale=1/6).
	sup := ProxylessNASSupernet(false, 10)
	teacher := MobileNetV2(false, 10)
	if sup.Net.ParamCount() < 3*teacher.Net.ParamCount() {
		t.Errorf("supernet params %d should far exceed teacher %d", sup.Net.ParamCount(), teacher.Net.ParamCount())
	}
}

func TestProxylessSupernetAlignsWithTeacherBlocks(t *testing.T) {
	for _, imagenet := range []bool{false, true} {
		classes := 10
		if imagenet {
			classes = 1000
		}
		teacher := MobileNetV2(imagenet, classes)
		student := ProxylessNASSupernet(imagenet, classes)
		for i := range teacher.Net.Blocks {
			tb, sb := teacher.Net.Blocks[i], student.Net.Blocks[i]
			if tb.InBytes(1) != sb.InBytes(1) {
				t.Errorf("imagenet=%v block %d input mismatch: teacher %d student %d",
					imagenet, i, tb.InBytes(1), sb.InBytes(1))
			}
			if tb.OutBytes(1) != sb.OutBytes(1) {
				t.Errorf("imagenet=%v block %d output mismatch: teacher %d student %d",
					imagenet, i, tb.OutBytes(1), sb.OutBytes(1))
			}
		}
	}
}
