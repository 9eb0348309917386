package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cancelX is an input whose product with 0.1 is inexact in float64: the
// last row of tailParams takes Beta = −(x·0.1) rounded, so the affine's
// sum cancels to exactly 0 when the product is rounded on its own, and to
// the product's rounding error (about 1e-18, a normal float32) when it is
// fused into a multiply-add.
var cancelX = float32(1.0 / 3)

// tailParams are the per-channel constants the tail cases combine with
// every mode: ordinary ones, a −0 bias on an identity affine, NaNs with
// payloads in every parameter (so a NaN input meets a NaN operand of
// another payload at each step), infinities, an affine whose float64
// result overflows float32 on narrowing, one that lands in the float32
// denormals, and one that cancels at cancelX.
var tailParams = []struct {
	bias                      float32
	mean, invStd, gamma, beta float64
}{
	{0.25, 0.1, 1.7, 0.9, -0.2},
	{float32(math.Copysign(0, -1)), 0, 1, 1, 0},
	{math.Float32frombits(0x7fc0beef), math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff8000000000456),
		math.Float64frombits(0x7ff8000000000789), math.Float64frombits(0x7ff0000000000abc)},
	{float32(math.Inf(1)), math.Inf(-1), math.Inf(1), math.Inf(-1), math.Inf(1)},
	{-3, 1e30, 1e20, -1e20, 3},
	{0, 0, 1e-42, 1, 0},
	{1, 0.5, 2, 0, math.Copysign(0, -1)},
	{0, 0, 1, 0.1, -(float64(cancelX) * 0.1)},
}

// tailCases returns every combination of a ChannelTail's three steps
// with every row of tailParams.
func tailCases() []ChannelTail {
	var ts []ChannelTail
	for mode := 0; mode < 8; mode++ {
		for _, p := range tailParams {
			ts = append(ts, ChannelTail{
				AddBias: mode&1 != 0, Bias: p.bias,
				Norm: mode&2 != 0, Mean: p.mean, InvStd: p.invStd, Gamma: p.gamma, Beta: p.beta,
				ReLU: mode&4 != 0,
			})
		}
	}
	return ts
}

// tailInputs returns the transcendental kernels' edge inputs (zeros,
// denormals, infinities, quiet and signalling NaNs, both signs), cancelX,
// and n random bit patterns and n ordinary activations in [−2, 2),
// interleaved.
func tailInputs(rng *rand.Rand, n int) []float32 {
	xs := append(transcendEdges(), cancelX)
	for i := 0; i < n; i++ {
		xs = append(xs, math.Float32frombits(rng.Uint32()), 4*rng.Float32()-2)
	}
	return xs
}

// tailBoth runs ChannelTailInto on src with the lanes (where the host
// has them), in place with the lanes, and with the scalar loop alone.
func tailBoth(src []float32, tc ChannelTail) (vector, inPlace, scalar []float32) {
	defer func(prev kernelTier) { tier = prev }(tier)
	vector, scalar = make([]float32, len(src)), make([]float32, len(src))
	inPlace = append([]float32(nil), src...)
	ChannelTailInto(vector, src, tc)
	ChannelTailInto(inPlace, inPlace, tc)
	tier = tierGeneric
	ChannelTailInto(scalar, src, tc)
	return vector, inPlace, scalar
}

// gateBoth is tailBoth for ReLUGateInto, in place into grad.
func gateBoth(grad, out []float32) (vector, inPlace, scalar []float32) {
	defer func(prev kernelTier) { tier = prev }(tier)
	vector, scalar = make([]float32, len(grad)), make([]float32, len(grad))
	inPlace = append([]float32(nil), grad...)
	ReLUGateInto(vector, grad, out)
	ReLUGateInto(inPlace, inPlace, out)
	tier = tierGeneric
	ReLUGateInto(scalar, grad, out)
	return vector, inPlace, scalar
}

// TestChannelTailAVXMatchesGenericBits pins the AVX lanes of both kernels
// to their scalar loops bit for bit, NaN payloads included: every mode
// and parameter row of tailCases, at every length 0–40 and slice offset
// 0–7, so each edge input sits in each lane and in the tail, with dst
// apart from src and dst == src. The gate's out operand is the ReLU of a
// second input stream, with NaNs and zeros of both signs of its own.
func TestChannelTailAVXMatchesGenericBits(t *testing.T) {
	if tier == tierGeneric {
		t.Skip("no AVX: the scalar loops are the only path")
	}
	inputs := tailInputs(rand.New(rand.NewSource(36)), 40)
	start := 0
	for n := 0; n <= 40; n++ {
		for off := 0; off < 8; off++ {
			buf, gbuf := make([]float32, off+n), make([]float32, off+n)
			src, grad := buf[off:], gbuf[off:]
			for i := range src {
				src[i] = inputs[(start+i)%len(inputs)]
				grad[i] = inputs[(3*start+7*i+1)%len(inputs)]
			}
			start++
			for _, tc := range tailCases() {
				vector, inPlace, scalar := tailBoth(src, tc)
				if diff := bitsMismatch(src, vector, scalar); diff != "" {
					t.Fatalf("%+v n=%d offset=%d: %s", tc, n, off, diff)
				}
				if diff := bitsMismatch(src, inPlace, scalar); diff != "" {
					t.Fatalf("%+v n=%d offset=%d in place: %s", tc, n, off, diff)
				}
			}
			out := make([]float32, n)
			channelTailGeneric(out, src, ChannelTail{ReLU: true})
			vector, inPlace, scalar := gateBoth(grad, out)
			if diff := bitsMismatch(grad, vector, scalar); diff != "" {
				t.Fatalf("ReLUGateInto n=%d offset=%d: %s", n, off, diff)
			}
			if diff := bitsMismatch(grad, inPlace, scalar); diff != "" {
				t.Fatalf("ReLUGateInto n=%d offset=%d in place: %s", n, off, diff)
			}
		}
	}
}

// FuzzChannelTail runs both kernels on random bit patterns at a random
// slice offset and length, under a random mode with random parameter
// bits, and checks that the kernels (vector lanes where AVX exists) match
// their scalar loops bit for bit, apart and in place.
func FuzzChannelTail(f *testing.F) {
	edges := transcendEdges()
	seed := make([]byte, 4*len(edges))
	for i, x := range edges {
		binary.LittleEndian.PutUint32(seed[4*i:], math.Float32bits(x))
	}
	for i, p := range tailParams {
		f.Add(seed[4*(i%8):], uint8(i), uint8(7-i%8), math.Float32bits(p.bias),
			math.Float64bits(p.mean), math.Float64bits(p.invStd), math.Float64bits(p.gamma), math.Float64bits(p.beta))
	}
	f.Fuzz(func(t *testing.T, data []byte, off, mode uint8, bias uint32, mean, invStd, gamma, beta uint64) {
		n := len(data) / 4
		buf := make([]float32, int(off%8)+n)
		src := buf[off%8:]
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		tc := ChannelTail{
			AddBias: mode&1 != 0, Bias: math.Float32frombits(bias),
			Norm: mode&2 != 0, Mean: math.Float64frombits(mean), InvStd: math.Float64frombits(invStd),
			Gamma: math.Float64frombits(gamma), Beta: math.Float64frombits(beta),
			ReLU: mode&4 != 0,
		}
		vector, inPlace, scalar := tailBoth(src, tc)
		if diff := bitsMismatch(src, vector, scalar); diff != "" {
			t.Fatalf("%+v n=%d: %s", tc, n, diff)
		}
		if diff := bitsMismatch(src, inPlace, scalar); diff != "" {
			t.Fatalf("%+v n=%d in place: %s", tc, n, diff)
		}
		// The gate reads the ReLU of src backwards, so its pass and block
		// lanes differ from the inputs'.
		out := make([]float32, n)
		for i := range out {
			out[i] = scalar[n-1-i]
		}
		channelTailGeneric(out, out, ChannelTail{ReLU: true})
		vector, inPlace, scalar = gateBoth(src, out)
		if diff := bitsMismatch(src, vector, scalar); diff != "" {
			t.Fatalf("ReLUGateInto n=%d: %s", n, diff)
		}
		if diff := bitsMismatch(src, inPlace, scalar); diff != "" {
			t.Fatalf("ReLUGateInto n=%d in place: %s", n, diff)
		}
	})
}

func TestChannelTailLengthPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"ChannelTailInto":  func() { ChannelTailInto(make([]float32, 3), make([]float32, 4), ChannelTail{ReLU: true}) },
		"ReLUGateInto dst": func() { ReLUGateInto(make([]float32, 3), make([]float32, 4), make([]float32, 4)) },
		"ReLUGateInto out": func() { ReLUGateInto(make([]float32, 4), make([]float32, 4), make([]float32, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkChannelTailInto times the pass at the teacher block's plane of
// the conv_inproc workload (16×16 floats) and the cluster workloads'
// (8×8), under the teacher's BatchNorm-and-ReLU tail and the student's
// bias-and-ReLU one, and the ReLU's backward gate at the teacher's.
func BenchmarkChannelTailInto(b *testing.B) {
	rng := rand.New(rand.NewSource(37))
	for _, plane := range []int{256, 64} {
		src := Rand(rng, -2, 2, plane).data
		dst := make([]float32, plane)
		for _, c := range []struct {
			name string
			tc   ChannelTail
		}{
			{"bn_relu", ChannelTail{Norm: true, Mean: 0.1, InvStd: 1.3, Gamma: 0.9, Beta: 0.05, ReLU: true}},
			{"bias_relu", ChannelTail{AddBias: true, Bias: 0.1, ReLU: true}},
		} {
			b.Run(fmt.Sprintf("%s/%d", c.name, plane), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ChannelTailInto(dst, src, c.tc)
				}
			})
		}
		b.Run(fmt.Sprintf("gate/%d", plane), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ReLUGateInto(dst, src, src)
			}
		})
	}
}
