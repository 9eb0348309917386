package tensor

import (
	"fmt"
	"math"
)

// Channel tails: the elementwise work that follows a convolution on one
// output channel — a bias add, an evaluation-mode BatchNorm and a ReLU —
// done in the same pass that moves the channel's plane from the GEMM's
// [C, N·H·W] rows to its NCHW place, and the ReLU's backward gate.
//
// The scalar loops (channelTailGeneric, reluGateGeneric) are the
// contract, one sequence per element. Where AVX exists, whole groups of
// eight run through tail_amd64.s, which performs that same sequence in
// each vector lane — one instruction per Go operation, in the Go
// expression's operand order, no fused multiply-add; the BatchNorm affine
// in two float64 halves of four lanes. The scalar loop takes the tail,
// hosts without AVX and every other port, and is the lanes' oracle.

// ChannelTail is what runs on each element of one channel's plane, in
// this order, each step only where enabled:
//
//	v = v + Bias                                            (AddBias)
//	v = float32(((float64(v) − Mean)·InvStd)·Gamma + Beta)  (Norm)
//	v = 0 where v ≤ 0, else v                               (ReLU)
//
// The first is a float32 add; the second a BatchNorm's evaluation-mode
// affine in float64, with the product x̂·Gamma rounded before Beta is
// added; the third a bit select, so −0 becomes +0 and a NaN is kept. The
// zero ChannelTail copies.
type ChannelTail struct {
	AddBias bool
	Bias    float32

	Norm                      bool
	Mean, InvStd, Gamma, Beta float64

	ReLU bool
}

// ChannelTailInto writes src with t applied elementwise to dst; dst and
// src have one length and may be the same slice.
func ChannelTailInto(dst, src []float32, t ChannelTail) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ChannelTailInto length mismatch %d vs %d", len(dst), len(src)))
	}
	if !t.AddBias && !t.Norm && !t.ReLU {
		copy(dst, src)
		return
	}
	n := channelTailLanes(dst, src, t)
	channelTailGeneric(dst[n:], src[n:], t)
}

// channelTailGeneric is ChannelTailInto's element sequence, one element
// at a time.
func channelTailGeneric(dst, src []float32, t ChannelTail) {
	for i, v := range src {
		if t.AddBias {
			v += t.Bias
		}
		if t.Norm {
			xh := (float64(v) - t.Mean) * t.InvStd
			v = float32(float64(xh*t.Gamma) + t.Beta)
		}
		if t.ReLU {
			// A select between bit patterns, not a branch: activation
			// signs are a coin flip, and this compiles to a conditional
			// move.
			b := math.Float32bits(v)
			if v <= 0 {
				b = 0
			}
			v = math.Float32frombits(b)
		}
		dst[i] = v
	}
}

// ReLUGateInto is the ReLU's backward: dst[i] = grad[i] where out[i] > 0,
// else +0, with out the ReLU's output. out > 0 exactly where the input
// was > 0 — a NaN or a zero of either sign fails both — so the output is
// all the gate needs. dst may be grad; the three have one length.
func ReLUGateInto(dst, grad, out []float32) {
	if len(dst) != len(grad) || len(out) != len(grad) {
		panic(fmt.Sprintf("tensor: ReLUGateInto lengths %d, %d, %d", len(dst), len(grad), len(out)))
	}
	n := reluGateLanes(dst, grad, out)
	reluGateGeneric(dst[n:], grad[n:], out[n:])
}

// reluGateGeneric is ReLUGateInto's element sequence.
func reluGateGeneric(dst, grad, out []float32) {
	for i, g := range grad {
		b := math.Float32bits(g)
		if !(out[i] > 0) {
			b = 0
		}
		dst[i] = math.Float32frombits(b)
	}
}
