package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"pipebd/internal/tensor"
)

// FuzzReadFrame drives the frame decoder and every payload decoder of the
// codec with arbitrary bytes: nothing may panic, anything that decodes
// must re-encode to a frame that decodes identically (the round-trip
// property on the surviving inputs), and a relay envelope that unwraps
// must wrap back to the same bytes — the coordinator forwards it opaquely,
// so the two ends are the only ones that ever interpret it.
func FuzzReadFrame(f *testing.F) {
	f.Add(encodeSeed(Control(KindHello, NoDev, NoStep)))
	f.Add(encodeSeed(EncodeLosses(0, 3, []float64{1.5, -2})))
	f.Add(encodeSeed(EncodeAssign(&Assign{})))
	f.Add(encodeSeed(Control(KindHeartbeat, NoDev, NoStep)))
	f.Add(encodeSeed(EncodeDeviceSnapshot(1, 2, nil, nil)))
	// A snapshot as a group leader sends one, a value and a velocity slab
	// per block; the group's final value slabs; and a snapshot whose
	// velocity slab is one element short, which Reader.State refuses.
	st := sampleResume().States[0]
	f.Add(encodeSeed(EncodeDeviceSnapshot(int32(st.Dev), int32(st.Step), st.Values, st.Velocity)))
	f.Add(encodeSeed(EncodeTensors(KindFinalParams, int32(st.Dev), NoStep, st.Values)))
	f.Add(encodeSeed(EncodeDeviceSnapshot(int32(st.Dev), int32(st.Step), st.Values,
		[]*tensor.Tensor{st.Velocity[0], tensor.New(st.Velocity[1].Numel() - 1)})))
	f.Add(encodeSeed(EncodeAssign(sampleResume()))) // the session-open frame of a restart: n states
	// A control-link resume: the coordinator's hello, from NoDev.
	f.Add(encodeSeed(EncodePeerHello(PeerHello{Epoch: 7, From: int(NoDev), To: 2, Resume: true, Recvd: 41})))
	f.Add(encodeSeed(EncodeLinkAck(9)))
	f.Add(encodeSeed(EncodeLinkDown(2, 1)))
	f.Add(encodeSeed(EncodeSpans(SpanBatch{Dev: 1, Track: "dev1"})))
	f.Add(encodeSeed(&Frame{Kind: KindRepartition, Dev: NoDev, Step: 3, Payload: EncodePlan(sampleAssign().Plan)}))
	for _, inner := range []*Frame{
		EncodeTensor(KindOutput, 1, 4, tensor.New(2, 3)),
		Control(KindPeerAck, 2, 4),
		EncodeRingSegment(1, 4, RingGather, 1, []float32{1, -2}),
		Control(KindStepGo, 1, 4), // not a peer frame: the envelope must refuse it
	} {
		f.Add(encodeSeed(EncodeRelay(2, inner)))
	}
	for _, retired := range retiredKinds {
		f.Add(encodeSeed(&Frame{Kind: retired, Dev: NoDev, Step: NoStep}))
	}
	f.Add([]byte{Magic, Version, byte(KindOutput), 0})
	f.Add([]byte{Magic, 1, byte(KindHello), 0}) // version skew: old peer

	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must survive a re-encode/decode round trip.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		fr2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if fr2.Kind != fr.Kind || fr2.Dev != fr.Dev || fr2.Step != fr.Step || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("round trip changed frame: %+v vs %+v", fr2, fr)
		}
		// Kind-specific decoders must not panic on arbitrary payloads.
		_, _ = DecodeAssign(&Frame{Kind: KindAssign, Payload: fr.Payload})
		if fresh, err := DecodeTensor(&Frame{Kind: KindOutput, Payload: fr.Payload}); err == nil {
			// Decoding into a buffer of the tensor's shape fills that
			// buffer, and into one of another shape a fresh tensor, with
			// the bits a fresh decode gives.
			for _, dst := range []*tensor.Tensor{tensor.Full(7, fresh.Shape()...), tensor.New(fresh.Numel() + 1)} {
				got, err := DecodeTensorInto(&Frame{Kind: KindOutput, Payload: fr.Payload}, dst)
				if err != nil || (got == dst) != dst.SameShape(fresh) || !sameBits(got.Data(), fresh.Data()) {
					t.Fatalf("decoding into a %v buffer: %v, %v", dst.Shape(), got, err)
				}
			}
		}
		_, _ = DecodeTensors(&Frame{Kind: KindFinalParams, Payload: fr.Payload})
		_, _ = DecodeLosses(&Frame{Kind: KindLosses, Payload: fr.Payload}, nil)
		checkStateWalk(t, fr.Payload)
		_, _ = DecodePeerHello(&Frame{Kind: KindPeerHello, Payload: fr.Payload})
		_, _ = DecodeLinkAck(&Frame{Kind: KindLinkAck, Payload: fr.Payload})
		_, _, _ = DecodeLinkDown(&Frame{Kind: KindLinkDown, Payload: fr.Payload})
		if phase, seg, fresh, err := DecodeRingSegment(&Frame{Kind: KindRingSegment, Payload: fr.Payload}, nil); err == nil {
			// Decoding into a buffer with the room fills that buffer, and
			// into one without it a fresh slice, with the bits a fresh
			// decode gives.
			for _, dst := range [][]float32{make([]float32, len(fresh)+1), make([]float32, 0, max(len(fresh)-1, 0))} {
				p2, s2, got, err := DecodeRingSegment(&Frame{Kind: KindRingSegment, Payload: fr.Payload}, dst)
				inPlace := len(got) > 0 && cap(dst) > 0 && &got[0] == &dst[:1][0]
				if err != nil || p2 != phase || s2 != seg || inPlace != (len(fresh) > 0 && cap(dst) >= len(fresh)) || !sameBits(got, fresh) {
					t.Fatalf("decoding a ring segment into a buffer of capacity %d: in place %v, %v", cap(dst), inPlace, err)
				}
			}
		}
		_, _ = DecodeSpans(&Frame{Kind: KindSpans, Payload: fr.Payload})
		_, _ = DecodePlan(fr.Payload)
		if inner, err := DecodeRelay(&Frame{Kind: KindRelay, Dev: fr.Dev, Step: fr.Step, Payload: fr.Payload}); err == nil {
			switch inner.Kind {
			case KindOutput, KindPeerAck, KindRingSegment:
			default:
				t.Fatalf("relay envelope let a %v frame through", inner.Kind)
			}
			if again := EncodeRelay(fr.Dev, inner); again.Step != fr.Step || !bytes.Equal(again.Payload, fr.Payload) {
				t.Fatalf("relay envelope re-encodes differently: %+v vs %+v", again, fr)
			}
		}
	})
}

// FuzzStateWalk is the differential of the two ways a device state is
// read: for any payload, the header walk (StateBytes) accepts exactly when
// Reader.State decodes, returns the whole payload when it does, and
// reports the decoded value slabs' ranks and element counts.
func FuzzStateWalk(f *testing.F) {
	st := sampleResume().States[0]
	state := func(values, velocity []*tensor.Tensor) []byte {
		w := NewWriter()
		w.State(values, velocity)
		return w.Bytes()
	}
	good := state(st.Values, st.Velocity)
	f.Add(good)
	f.Add(state(nil, nil))
	// A velocity slab one element short.
	f.Add(state(st.Values, []*tensor.Tensor{st.Velocity[0], tensor.New(st.Velocity[1].Numel() - 1)}))
	// A slab of rank 2, paired and unpaired.
	square := []*tensor.Tensor{tensor.New(2, 2)}
	f.Add(state(square, square))
	f.Add(state(square, []*tensor.Tensor{tensor.New(4)}))
	// A truncated payload.
	f.Add(good[:len(good)-5])
	// A missing velocity list.
	w := NewWriter()
	w.Tensors(st.Values)
	f.Add(w.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) { checkStateWalk(t, data) })
}

// checkStateWalk holds the header walk to Reader.State on one payload.
func checkStateWalk(t *testing.T, payload []byte) {
	t.Helper()
	values, _, err := decodeState(payload)
	var seen [][2]int
	r := NewReader(payload)
	walked := r.StateBytes(func(i, rank, n int) {
		if i != len(seen) {
			t.Fatalf("the walk reported slab %d after %d slabs", i, len(seen))
		}
		seen = append(seen, [2]int{rank, n})
	})
	if walkErr := r.Close(); (walkErr == nil) != (err == nil) {
		t.Fatalf("Reader.State: %v; the header walk: %v", err, walkErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(walked, payload) {
		t.Fatalf("the walk returned %d of the state's %d bytes", len(walked), len(payload))
	}
	if len(seen) != len(values) {
		t.Fatalf("the walk reported %d slabs, State decoded %d", len(seen), len(values))
	}
	for i, v := range values {
		if want := [2]int{len(v.Shape()), v.Numel()}; seen[i] != want {
			t.Fatalf("slab %d: the walk reported rank and size %v, State decoded %v", i, seen[i], v.Shape())
		}
	}
}

// FuzzDataRecipe: any row range of any step of a valid recipe, built
// alone, is the same rows of Batches bit for bit, and every value lies in
// its range: image values in [-1, 1), token ids in [0, Vocab), labels in
// [0, Classes). A recipe that fails Validate does not evaluate.
func FuzzDataRecipe(f *testing.F) {
	f.Add(int64(7), false, uint8(16), uint8(3), uint8(8), uint8(8), int16(4), uint8(8), uint8(0), int16(0), uint8(1), uint8(2), uint8(5))
	f.Add(int64(-2), true, uint8(40), uint8(0), uint8(0), uint8(0), int16(8), uint8(16), uint8(32), int16(512), uint8(1), uint8(15), uint8(0))
	f.Add(int64(3), false, uint8(9), uint8(1), uint8(1), uint8(2), int16(0), uint8(4), uint8(0), int16(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, tokens bool, n, c, h, w uint8, classes int16, batch, l uint8, vocab int16, step, lo, hi uint8) {
		ds := DataSpec{Seed: seed, N: int(n), C: int(c) % 8, H: int(h) % 16, W: int(w) % 16, Classes: int(classes), Batch: int(batch) % 32}
		if tokens {
			ds.Kind, ds.L, ds.Vocab, ds.C, ds.H, ds.W = "tokens", int(l)%64, int(vocab), 0, 0, 0
		}
		batches, err := ds.Batches()
		if ds.Validate() != nil {
			if err == nil {
				t.Fatalf("recipe %+v fails validation but evaluates", ds)
			}
			return
		}
		if err != nil || len(batches) != ds.Steps() {
			t.Fatalf("recipe %+v: %d batches, %v; want %d", ds, len(batches), err, ds.Steps())
		}
		if len(batches) == 0 {
			return
		}
		for _, b := range batches {
			for _, v := range b.X.Data() {
				if tokens && (v != float32(int(v)) || v < 0 || int(v) >= ds.Vocab) || !tokens && (v < -1 || v >= 1) {
					t.Fatalf("recipe %+v: value %v out of range", ds, v)
				}
			}
			for _, y := range b.Labels {
				if y < 0 || y >= ds.Classes {
					t.Fatalf("recipe %+v: label %d out of range", ds, y)
				}
			}
		}
		s := int(step) % len(batches)
		r0, r1 := int(lo)%ds.Batch, int(hi)%ds.Batch
		if r0 > r1 {
			r0, r1 = r1, r0
		}
		r1++
		per := batches[s].X.Numel() / ds.Batch
		x, labels := tensor.New(r1-r0, per), make([]int, r1-r0)
		if err := ds.RowsInto(s, r0, x, labels); err != nil {
			t.Fatalf("recipe %+v: rows %d-%d of step %d: %v", ds, r0, r1-1, s, err)
		}
		if !sameBits(x.Data(), batches[s].X.Data()[r0*per:r1*per]) || !slices.Equal(labels, batches[s].Labels[r0:r1]) {
			t.Fatalf("recipe %+v: rows %d-%d of step %d built alone differ from the batch's", ds, r0, r1-1, s)
		}
		if err := ds.RowsInto(len(batches), 0, batches[0].X, nil); err == nil {
			t.Fatalf("recipe %+v built a step past its last", ds)
		}
		if err := ds.RowsInto(s, ds.Batch-r1+r0+1, x, nil); err == nil {
			t.Fatalf("recipe %+v built rows past its batch", ds)
		}
	})
}

func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

func encodeSeed(fr *Frame) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, fr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
