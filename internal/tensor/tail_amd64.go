//go:build amd64

package tensor

// Mode bits of channelTailAVX: which of a ChannelTail's steps run.
const (
	tailBias = 1 << iota
	tailNorm
	tailReLU
)

// channelTailAVX and reluGateAVX (tail_amd64.s) write channelTailGeneric's
// and reluGateGeneric's results for the first n elements, eight lanes at
// a time; n is a positive multiple of 8, and dst may be src (or grad).
//
//go:noescape
func channelTailAVX(dst, src *float32, n int, bias float32, mean, invStd, gamma, beta float64, mode int)

//go:noescape
func reluGateAVX(dst, grad, out *float32, n int)

// channelTailLanes runs the whole groups of eight of ChannelTailInto's
// operands through channelTailAVX and returns how many it wrote: none
// without AVX.
func channelTailLanes(dst, src []float32, t ChannelTail) int {
	n := len(src) &^ 7
	if tier == tierGeneric || n == 0 {
		return 0
	}
	mode := 0
	if t.AddBias {
		mode |= tailBias
	}
	if t.Norm {
		mode |= tailNorm
	}
	if t.ReLU {
		mode |= tailReLU
	}
	channelTailAVX(&dst[0], &src[0], n, t.Bias, t.Mean, t.InvStd, t.Gamma, t.Beta, mode)
	return n
}

// reluGateLanes is channelTailLanes for ReLUGateInto.
func reluGateLanes(dst, grad, out []float32) int {
	n := len(grad) &^ 7
	if tier == tierGeneric || n == 0 {
		return 0
	}
	reluGateAVX(&dst[0], &grad[0], &out[0], n)
	return n
}
