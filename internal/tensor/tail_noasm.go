//go:build !amd64

package tensor

// channelTailLanes and reluGateLanes mirror the amd64 vector kernels'
// entry points: without them the scalar loops take every element.
func channelTailLanes(dst, src []float32, t ChannelTail) int { return 0 }

func reluGateLanes(dst, grad, out []float32) int { return 0 }
