package hw

import "fmt"

// Presets mirroring Table I of the paper. Peak FLOP/s figures are the
// published FP32 numbers; KernelEff and LaunchOverhead are calibrated so
// that simulated baseline epoch times land in the same regime as the
// paper's Table II (the experiments compare schedule *shapes*, which are
// insensitive to moderate calibration error).

const (
	gib = int64(1) << 30
	gb  = 1e9
)

// RTXA6000 returns the analytic model of an NVIDIA RTX A6000 (Ampere,
// 38.7 TFLOPS FP32 peak, 768 GB/s GDDR6, 48 GiB).
func RTXA6000() GPU {
	return GPU{
		Name:            "RTX A6000",
		PeakFLOPS:       38.7e12,
		KernelEff:       0.30,
		MemBandwidth:    0.60 * 768e9,
		LaunchOverhead:  25e-6,
		SaturationElems: 400e3,
		MemBytes:        48 * gib,
	}
}

// RTX2080Ti returns the analytic model of an NVIDIA RTX 2080 Ti (Turing,
// 13.45 TFLOPS FP32 peak, 616 GB/s GDDR6, 11 GiB).
func RTX2080Ti() GPU {
	return GPU{
		Name:            "RTX 2080Ti",
		PeakFLOPS:       13.45e12,
		KernelEff:       0.35,
		MemBandwidth:    0.60 * 616e9,
		LaunchOverhead:  22e-6,
		SaturationElems: 140e3,
		MemBytes:        11 * gib,
	}
}

// PCIe4 returns an effective PCIe 4.0 ×16 point-to-point link through the
// host bridge.
func PCIe4() Link {
	return Link{Name: "PCIe 4.0 x16", BandwidthBytes: 20 * gb, Latency: 12e-6}
}

// PCIe3 returns an effective PCIe 3.0 ×16 link.
func PCIe3() Link {
	return Link{Name: "PCIe 3.0 x16", BandwidthBytes: 10 * gb, Latency: 12e-6}
}

// EPYC7302Host returns the default system's host: one AMD EPYC 7302
// (16 cores) with NVMe-class storage bandwidth.
func EPYC7302Host() Host {
	return Host{Name: "EPYC 7302 (16c)", StorageBandwidth: 3.2 * gb, Cores: 16,
		PerBatchOverhead: 2.5e-3, StepOverhead: 25e-3}
}

// Xeon4214Host returns the alternative system's host: two Intel Xeon
// Silver 4214 (2×12 cores) with SATA/NAS-class storage bandwidth.
func Xeon4214Host() Host {
	return Host{Name: "2x Xeon Silver 4214 (24c)", StorageBandwidth: 2.0 * gb, Cores: 24,
		PerBatchOverhead: 3.0e-3, StepOverhead: 32e-3}
}

// A6000x4 returns the paper's default environment: 4× RTX A6000 on PCIe
// 4.0 with the EPYC host (Table I, "Default").
func A6000x4() System {
	gpus := make([]GPU, 4)
	for i := range gpus {
		gpus[i] = RTXA6000()
	}
	return System{Name: "4x RTX A6000", GPUs: gpus, Link: PCIe4(), Host: EPYC7302Host()}
}

// RTX2080Tix4 returns the paper's alternative environment: 4× RTX 2080 Ti
// on PCIe 3.0 with the dual-Xeon host (Table I, "Alternative").
func RTX2080Tix4() System {
	gpus := make([]GPU, 4)
	for i := range gpus {
		gpus[i] = RTX2080Ti()
	}
	return System{Name: "4x RTX 2080Ti", GPUs: gpus, Link: PCIe3(), Host: Xeon4214Host()}
}

// Preset returns the paper's environment the command lines name: a6000
// (Table I, "Default") or 2080ti ("Alternative").
func Preset(name string) (System, error) {
	switch name {
	case "a6000":
		return A6000x4(), nil
	case "2080ti":
		return RTX2080Tix4(), nil
	}
	return System{}, fmt.Errorf("unknown system %q (want a6000 or 2080ti)", name)
}

// Homogeneous returns a system of n identical GPUs on the given link and
// host — the generic constructor behind custom-system experiments.
func Homogeneous(name string, n int, gpu GPU, link Link, host Host) System {
	gpus := make([]GPU, n)
	for i := range gpus {
		gpus[i] = gpu
	}
	return System{Name: name, GPUs: gpus, Link: link, Host: host}
}
