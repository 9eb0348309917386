// Package hw models the execution environment of the paper's experiments:
// GPUs with batch-dependent utilization, the PCIe interconnect, and the
// host's shared data-loading path (disk/page cache plus CPU decode).
//
// Since no GPU hardware is available to this reproduction, devices are
// analytic roofline models (see README.md). A device's time for one kernel
// invocation moving `bytes` of memory traffic while performing `flops`
// floating-point operations is
//
//	t = max(FLOPs / (PeakFLOPS · KernelEff), bytes / MemBandwidth) + LaunchOverhead
//
// The roofline maximum captures that low-arithmetic-intensity layers
// (depthwise convolutions, normalizations, early layers with huge feature
// maps) are bandwidth-bound — this is what makes ImageNet's first blocks
// dominate execution time in the paper's Fig. 5 even though their MAC
// counts are unremarkable. The additive per-invocation overhead captures
// kernel launch latency and low-occupancy tails; it is what makes small
// per-device batches slow (the paper's utilization argument), makes the
// faster GPU proportionally more launch-bound on small workloads (the
// Fig. 5 A6000-vs-2080Ti schedule divergence), and makes AHD's batch
// splitting cost something.
package hw

import "fmt"

// GPU is an analytic accelerator model.
type GPU struct {
	Name string

	// PeakFLOPS is the theoretical FP32 throughput in FLOP/s.
	PeakFLOPS float64

	// KernelEff is the sustained fraction of peak achieved by
	// well-shaped convolution kernels (0 < KernelEff <= 1).
	KernelEff float64

	// MemBandwidth is the effective device memory bandwidth in B/s
	// (published peak derated by an achievable fraction).
	MemBandwidth float64

	// LaunchOverhead is the fixed time per layer invocation in seconds
	// (kernel launch latency plus framework dispatch).
	LaunchOverhead float64

	// SaturationElems is the number of parallel output elements at which
	// a kernel reaches half of the device's sustained efficiency. Small
	// kernels (small per-device batch and/or small feature maps) leave
	// SMs under-filled, derating both compute and bandwidth — the
	// paper's "sufficient per-device batch size is critical" effect
	// ([17,18] in its references), expressed in the physically relevant
	// unit. Zero disables the derating.
	SaturationElems float64

	// MemBytes is the device memory capacity.
	MemBytes int64
}

// Utilization returns the occupancy factor in (0,1] for a kernel
// producing the given number of output elements:
// elems / (elems + SaturationElems).
func (g GPU) Utilization(elems float64) float64 {
	if g.SaturationElems <= 0 || elems <= 0 {
		return 1
	}
	return elems / (elems + g.SaturationElems)
}

// KernelTime returns the execution time of one kernel invocation under
// the roofline model: the slower of its compute and memory phases plus
// the launch overhead. Full occupancy is assumed; see KernelTimeElems.
func (g GPU) KernelTime(flops float64, bytes int64) float64 {
	return g.KernelTimeElems(flops, bytes, 0)
}

// KernelTimeElems is KernelTime with the occupancy derating for a kernel
// producing the given number of output elements (elems <= 0 assumes full
// occupancy).
func (g GPU) KernelTimeElems(flops float64, bytes int64, elems float64) float64 {
	if flops < 0 || bytes < 0 {
		panic(fmt.Sprintf("hw: negative kernel cost (flops=%v bytes=%d)", flops, bytes))
	}
	u := 1.0
	if elems > 0 {
		u = g.Utilization(elems)
	}
	compute := flops / (g.PeakFLOPS * g.KernelEff * u)
	memory := float64(bytes) / (g.MemBandwidth * u)
	t := compute
	if memory > t {
		t = memory
	}
	return t + g.LaunchOverhead
}

// Link is a point-to-point interconnect model (PCIe through host bridge).
type Link struct {
	Name string
	// BandwidthBytes is the effective unidirectional bandwidth in B/s.
	BandwidthBytes float64
	// Latency is the fixed per-transfer latency in seconds.
	Latency float64
}

// TransferTime returns the time to move n bytes across the link.
func (l Link) TransferTime(n int64) float64 {
	if n < 0 {
		panic(fmt.Sprintf("hw: negative transfer size %d", n))
	}
	return l.Latency + float64(n)/l.BandwidthBytes
}

// AllReduceTime returns the time for a ring all-reduce of n bytes among k
// participants: 2·(k-1)/k · n / bandwidth plus per-step latencies. For k=1
// it returns zero (no communication needed).
func (l Link) AllReduceTime(n int64, k int) float64 {
	if k <= 1 {
		return 0
	}
	steps := float64(2 * (k - 1))
	perStep := float64(n) / float64(k)
	return steps * (l.Latency + perStep/l.BandwidthBytes)
}

// ddpOverlap is the fraction of a gradient all-reduce hidden beneath the
// backward pass that produces the gradients (bucketed DDP).
const ddpOverlap = 0.7

// ExposedAllReduceTime returns the part of an all-reduce of n bytes among
// k participants left visible once ddpOverlap of a backward pass lasting
// bwd has hidden the rest. The schedulers and the simulator both price a
// split group through it.
func (l Link) ExposedAllReduceTime(n int64, k int, bwd float64) float64 {
	t := l.AllReduceTime(n, k) - ddpOverlap*bwd
	if t < 0 {
		return 0
	}
	return t
}

// Host models the shared CPU/storage side of data loading. The loading of
// one batch is pipelined between storage reads and CPU decode, so its
// steady-state cost is the maximum of the two; the resource is shared
// system-wide (a single loader serves every device), which the simulator
// enforces with a mutual-exclusion resource.
type Host struct {
	Name string
	// StorageBandwidth is the sustained read bandwidth of the dataset
	// source (page cache / NVMe / disk array) in B/s.
	StorageBandwidth float64
	// Cores is the number of CPU cores available for decode workers.
	Cores int
	// PerBatchOverhead is the fixed cost a *consumer* pays per batch it
	// ingests (iterator dispatch, collation, host-to-device staging on
	// the training process). Executors charge it on the device timeline,
	// so strategies that ingest more batches per device per epoch pay
	// proportionally — the paper's "extra data loading" overhead, which
	// dominates for small-sample datasets like CIFAR even when storage
	// bandwidth is plentiful.
	PerBatchOverhead float64

	// StepOverhead is the fixed host-side cost of one training-loop
	// iteration (optimizer housekeeping, loss bookkeeping, dispatch
	// stalls between phases). Every independent training loop pays it
	// per step: the DP baseline once per block pass, LS once per task,
	// Pipe-BD once per pipelined step — so schedules that consolidate
	// loops amortize it. Calibrated against Table II's epoch times.
	StepOverhead float64
}

// LoadTime returns the time for the shared loader to produce a batch of
// the given total storage bytes and total decode CPU-seconds.
func (h Host) LoadTime(storageBytes int64, decodeCPUSeconds float64) float64 {
	read := float64(storageBytes) / h.StorageBandwidth
	decode := decodeCPUSeconds / float64(h.Cores)
	if read > decode {
		return read
	}
	return decode
}

// System is a complete single-node training environment: N GPUs (equal
// in the paper's presets; every consumer reads each device's own), a
// uniform interconnect, and one shared host loader.
type System struct {
	Name string
	GPUs []GPU
	Link Link
	Host Host
}

// NumDevices returns the number of GPUs.
func (s System) NumDevices() int { return len(s.GPUs) }

// Validate reports configuration errors.
func (s System) Validate() error {
	if len(s.GPUs) == 0 {
		return fmt.Errorf("hw: system %q has no GPUs", s.Name)
	}
	for _, g := range s.GPUs {
		if g.PeakFLOPS <= 0 || g.KernelEff <= 0 || g.KernelEff > 1 {
			return fmt.Errorf("hw: GPU %q has invalid throughput model", g.Name)
		}
		if g.MemBandwidth <= 0 {
			return fmt.Errorf("hw: GPU %q has invalid memory bandwidth", g.Name)
		}
		if g.LaunchOverhead < 0 || g.MemBytes <= 0 {
			return fmt.Errorf("hw: GPU %q has invalid overhead/memory", g.Name)
		}
	}
	if s.Link.BandwidthBytes <= 0 || s.Link.Latency < 0 {
		return fmt.Errorf("hw: system %q has invalid link", s.Name)
	}
	if s.Host.StorageBandwidth <= 0 || s.Host.Cores <= 0 {
		return fmt.Errorf("hw: system %q has invalid host", s.Name)
	}
	return nil
}
