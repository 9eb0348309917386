package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame drives the frame and payload decoders with arbitrary
// bytes: nothing may panic, and anything that decodes must re-encode to a
// frame that decodes identically (the round-trip property on the surviving
// inputs).
func FuzzReadFrame(f *testing.F) {
	f.Add(encodeSeed(Control(KindHello, NoDev, NoStep)))
	f.Add(encodeSeed(EncodeLosses(0, 3, []float64{1.5, -2})))
	f.Add(encodeSeed(EncodeAssign(&Assign{})))
	f.Add(encodeSeed(Control(KindHeartbeat, NoDev, NoStep)))
	f.Add(encodeSeed(EncodeDeviceSnapshot(1, 2, nil, nil)))
	f.Add(encodeSeed(EncodeAssign(sampleResume()))) // the session-open frame of a restart: n states
	for _, retired := range retiredKinds {
		f.Add(encodeSeed(&Frame{Kind: retired, Dev: NoDev, Step: NoStep}))
	}
	f.Add([]byte{Magic, Version, byte(KindInput), 0})
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
		_, _ = DecodeTensor(&Frame{Kind: KindInput, Payload: fr.Payload})
		_, _ = DecodeTensors(&Frame{Kind: KindGrads, Payload: fr.Payload})
		_, _ = DecodeLosses(&Frame{Kind: KindLosses, Payload: fr.Payload})
		_, _ = DecodeBatch(fr.Payload)
		_, _, _ = DecodeDeviceSnapshot(&Frame{Kind: KindSnapshot, Payload: fr.Payload})
	})
}

func encodeSeed(fr *Frame) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, fr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
