package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"pipebd/internal/tensor"
)

// TestPooledEncodersMatchEncode: a pooled encoder writes the bytes its
// unpooled counterpart does, the pooled Encode… functions the bytes the
// codec's primitives do, and a payload too big for the largest class is a
// plain frame.
func TestPooledEncodersMatchEncode(t *testing.T) {
	act := randTensor(2, 3, 4, 5)
	params := []*tensor.Tensor{randTensor(3, 4), randTensor(7)}
	vels := []*tensor.Tensor{randTensor(3, 4), randTensor(7)}
	seg := randTensor(33).Data()
	cases := []struct{ pooled, plain *Frame }{
		{PooledControl(KindPeerAck, 2, 9), Control(KindPeerAck, 2, 9)},
		{PooledTensor(KindOutput, 1, 4, act), EncodeTensor(KindOutput, 1, 4, act)},
		{PooledDeviceSnapshot(4, 7, params, vels), EncodeDeviceSnapshot(4, 7, params, vels)},
	}
	for _, c := range cases {
		p, q := c.pooled, c.plain
		if p.pool == nil || p.Kind != q.Kind || p.Dev != q.Dev || p.Step != q.Step || !bytes.Equal(p.Payload, q.Payload) {
			t.Errorf("pooled %v frame (pooled %v) differs from the encoded one", q.Kind, p.pool != nil)
		}
		p.Release()
	}
	w := NewWriter()
	w.U8(RingGather)
	w.U32(2)
	w.F32s(seg)
	losses := NewWriter()
	losses.F64s([]float64{0.5, -1, 2e-9})
	for _, c := range []struct {
		f    *Frame
		want []byte
	}{{EncodeRingSegment(0, 6, RingGather, 2, seg), w.Bytes()}, {EncodeLosses(3, 5, []float64{0.5, -1, 2e-9}), losses.Bytes()}} {
		if c.f.pool == nil || !bytes.Equal(c.f.Payload, c.want) {
			t.Errorf("%v frame: pooled %v, payload differs %v", c.f.Kind, c.f.pool != nil, !bytes.Equal(c.f.Payload, c.want))
		}
		c.f.Release()
	}
	big := EncodeRingSegment(0, 0, RingFull, 0, make([]float32, readChunk/4))
	if big.pool != nil || len(big.Payload) != 1+4+4+readChunk {
		t.Fatalf("a %d-byte payload: pooled %v, %d bytes", len(big.Payload), big.pool != nil, len(big.Payload))
	}
	big.Release() // a plain frame's Release does nothing
}

// TestPooledFrameRecyclesAtLastRelease: a frame's buffer goes back to the
// cache, poisoned, only when its last holder releases it, the next frame
// of its class reuses it, and a release past the last panics.
func TestPooledFrameRecyclesAtLastRelease(t *testing.T) {
	f := EncodeLosses(1, 2, []float64{1, 2, 3})
	payload := f.Payload
	f.Retain()
	f.Retain()
	f.Release()
	f.Release()
	if payload[0] == poisonByte && payload[1] == poisonByte {
		t.Fatal("a frame with a holder left was recycled")
	}
	f.Release()
	for i, b := range payload {
		if b != poisonByte {
			t.Fatalf("released payload byte %d is %#x, want the poison %#x", i, b, poisonByte)
		}
	}
	if f.Kind != 0 || f.Dev != -poisonByte {
		t.Fatalf("released frame header reads %v dev %d, want it poisoned", f.Kind, f.Dev)
	}
	g := EncodeLosses(1, 3, []float64{4, 5, 6})
	if g != f || &g.Payload[0] != &payload[0] {
		t.Fatal("the next frame of the class did not reuse the released one")
	}
	if d, err := DecodeLosses(g, nil); err != nil || d[2] != 6 {
		t.Fatalf("the reused frame decodes to %v, %v", d, err)
	}
	g.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a recycled frame again did not panic")
		}
	}()
	g.Release()
}

// TestPooledRelayIsAReslice: wrapping a pooled peer frame for a relayed
// edge and unwrapping the envelope copy nothing and give the bytes
// EncodeRelay and DecodeRelay give — the frame itself when its holder is
// its only one, a view holding it otherwise.
func TestPooledRelayIsAReslice(t *testing.T) {
	act := randTensor(4, 6)
	want := EncodeRelay(3, EncodeTensor(KindOutput, 1, 8, act))

	f := PooledTensor(KindOutput, 1, 8, act)
	data := &f.Payload[0]
	env := WrapRelay(3, f)
	if env != f || env.Kind != KindRelay || env.Dev != 3 || env.Step != 8 || !bytes.Equal(env.Payload, want.Payload) {
		t.Fatalf("an exclusive frame's envelope: same frame %v, %v dev %d step %d", env == f, env.Kind, env.Dev, env.Step)
	}
	inner, err := UnwrapRelay(env)
	if err != nil || inner != env || inner.Kind != KindOutput || inner.Dev != 1 || &inner.Payload[0] != data {
		t.Fatalf("unwrapping an exclusive envelope: %v, same frame %v, in place %v", err, inner == env, &inner.Payload[0] == data)
	}
	inner.Release()

	// Shared by two outboxes: each wraps a view, and the buffer is
	// recycled once both views are gone.
	f = PooledTensor(KindOutput, 1, 8, act)
	payload := f.Payload
	f.Retain()
	a, b := WrapRelay(3, f), WrapRelay(3, f)
	if a == f || b == f || a == b || !bytes.Equal(a.Payload, want.Payload) || !bytes.Equal(b.Payload, want.Payload) {
		t.Fatal("a shared frame's envelopes are not two views of it")
	}
	a.Retain() // a second holder of one envelope: its unwrap is a view too
	in, err := UnwrapRelay(a)
	if err != nil || in == a || in.Kind != KindOutput || in.Dev != 1 || !bytes.Equal(in.Payload, payload) {
		t.Fatalf("unwrapping a shared envelope: %v, same frame %v", err, in == a)
	}
	in.Release()
	a.Release()
	b.Release()
	if payload[0] != poisonByte {
		t.Fatal("the frame outlived every view of it")
	}

	// An unpooled frame, or a pooled one whose payload is not behind its
	// headroom, is copied as before.
	plain := EncodeTensor(KindOutput, 1, 8, act)
	if env := WrapRelay(3, plain); env == plain || !bytes.Equal(env.Payload, want.Payload) {
		t.Fatal("wrapping an unpooled frame")
	}
	if _, err := UnwrapRelay(PooledControl(KindStepGo, 1, 1)); err == nil {
		t.Fatal("unwrapped a frame that is no envelope")
	}
}

// TestWarmFrameReadsAllocateNothing: once the cache is warm, reading a
// frame of up to readChunk payload bytes and releasing it allocates
// nothing, nor does encoding and releasing a pooled one.
func TestWarmFrameReadsAllocateNothing(t *testing.T) {
	var stream bytes.Buffer
	frames := []*Frame{
		EncodeTensor(KindOutput, 0, 1, randTensor(16, 6, 8, 8)),
		Control(KindStepGo, 2, 1),
		EncodeRelay(2, EncodeRingSegment(1, 1, RingContrib, 0, randTensor(300).Data())),
		EncodeLosses(1, 1, []float64{1, 2}),
	}
	for _, f := range frames {
		if err := WriteFrame(&stream, f); err != nil {
			t.Fatal(err)
		}
	}
	raw := stream.Bytes()
	src := bytes.NewReader(raw)
	read := func() {
		src.Reset(raw)
		for range frames {
			f, err := ReadFrame(src)
			if err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
	}
	read()
	if n := testing.AllocsPerRun(20, read); n != 0 {
		t.Errorf("a warm read of %d frames allocates %v times", len(frames), n)
	}
	act := randTensor(16, 6, 8, 8)
	if n := testing.AllocsPerRun(20, func() { PooledTensor(KindOutput, 0, 0, act).Release() }); n != 0 {
		t.Errorf("a warm pooled encode allocates %v times", n)
	}
}

func randTensor(shape ...int) *tensor.Tensor {
	return tensor.Rand(rand.New(rand.NewSource(int64(len(shape)))), -1, 1, shape...)
}
