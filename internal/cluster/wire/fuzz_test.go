package wire

import (
	"bytes"
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
		_, _ = DecodeTensor(&Frame{Kind: KindOutput, Payload: fr.Payload})
		_, _ = DecodeTensors(&Frame{Kind: KindFinalParams, Payload: fr.Payload})
		_, _ = DecodeLosses(&Frame{Kind: KindLosses, Payload: fr.Payload})
		_, _, _ = DecodeDeviceSnapshot(&Frame{Kind: KindSnapshot, Payload: fr.Payload})
		_, _ = DecodePeerHello(&Frame{Kind: KindPeerHello, Payload: fr.Payload})
		_, _ = DecodeLinkAck(&Frame{Kind: KindLinkAck, Payload: fr.Payload})
		_, _, _ = DecodeLinkDown(&Frame{Kind: KindLinkDown, Payload: fr.Payload})
		_, _, _, _ = DecodeRingSegment(&Frame{Kind: KindRingSegment, Payload: fr.Payload})
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

func encodeSeed(fr *Frame) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, fr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
