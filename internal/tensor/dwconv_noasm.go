//go:build !amd64

package tensor

// dwForwardLanes, dwInputGradLanes and dwWeightLanes mirror the amd64
// vector kernels' entry points: without them the row-run loops take
// every call.
func dwForwardLanes(od, wd, xd []float32, g convGeom) bool { return false }

func dwInputGradLanes(dxd, gd, wd []float32, g convGeom) bool { return false }

func dwWeightLanes(dwd, gd, xd []float32, g convGeom) bool { return false }
