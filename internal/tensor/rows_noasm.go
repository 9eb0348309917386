//go:build !amd64

package tensor

// The row kernels' lane entry points mirror the amd64 vector kernels':
// without them the scalar loops take every row and every column.

func layerNormStatsLanes(mean, invStd []float64, x []float32, d int, eps float64) int { return 0 }

func layerNormAffineLanes(out, xhat, x, gain, bias []float32, mean, invStd []float64) int { return 0 }

func layerNormDotsLanes(a, b []float64, grad, xhat, gain []float32) int { return 0 }

func layerNormDxLanes(dx, grad, xhat, gain []float32, a, b, invStd []float64) int { return 0 }

func layerNormParamGradLanes(dGain, dBias, grad, xhat []float32) int { return 0 }

func rowMaxLanes(m, x []float32, d int, scale float32) int { return 0 }

func softmaxShiftLanes(out, x, m []float32, scale float32) int { return 0 }

func rowInvSumLanes(inv []float64, e []float32, d int) int { return 0 }

func scaleRowsLanes(e []float32, inv []float64) int { return 0 }

func rowDotLanes(dot []float64, grad, probs []float32, d int) int { return 0 }

func softmaxBackwardLanes(dx, probs, grad []float32, dot []float64, scale float32) int { return 0 }

func geluArgLanes(u, x []float32) int { return 0 }

func geluOutLanes(out, x, th []float32) int { return 0 }

func geluBackwardLanes(dx, grad, x, th []float32) int { return 0 }

func addRowBiasLanes(x, bias []float32) int { return 0 }

func addColumnSumsLanes(dst, x []float32) int { return 0 }

func mseLanes(s *[4]float64, grad, pred, target []float32, n float64) int { return 0 }
