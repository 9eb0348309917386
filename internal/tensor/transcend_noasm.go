//go:build !amd64

package tensor

// tanhLanes and expLanes mirror the amd64 vector kernels' entry points:
// without them the scalar loops take every element.
func tanhLanes(dst, src []float32) int { return 0 }

func expLanes(dst, src []float32) int { return 0 }
