package mesh

import (
	"bytes"
	"testing"

	"resilientdns/internal/dnswire"
)

var testKey = []byte("fleet-shared-key")

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Type: TPing, Seq: 1, Cookie: 0xdeadbeef, Payload: []byte("hello")},
		{Type: TAck, Seq: 0xffffffff, Cookie: 0},
		{Type: TChallenge, Seq: 7, Cookie: 42},
		{Type: TFetchResp, Seq: 9, Payload: bytes.Repeat([]byte{0xab}, MaxPayload)},
	} {
		wire, err := EncodeFrame(testKey, f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		got, err := DecodeFrame(testKey, wire)
		if err != nil {
			t.Fatalf("decode %+v: %v", f, err)
		}
		if got.Type != f.Type || got.Seq != f.Seq ||
			got.Cookie != f.Cookie || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("round trip: got %+v want %+v", got, f)
		}
	}
}

func TestFrameRejectsTampering(t *testing.T) {
	wire, err := EncodeFrame(testKey, Frame{Type: TPing, Seq: 3, Cookie: 99, Payload: []byte("payload")})
	if err != nil {
		t.Fatal(err)
	}
	// Flipping any single bit — header, payload, or MAC — must fail
	// authentication (or structural validation); nothing may slip through.
	for i := range wire {
		bad := append([]byte{}, wire...)
		bad[i] ^= 0x01
		if _, err := DecodeFrame(testKey, bad); err == nil {
			t.Errorf("bit flip at byte %d accepted", i)
		}
	}
	if _, err := DecodeFrame([]byte("some-other-key"), wire); err == nil {
		t.Error("frame accepted under the wrong key")
	}
	if _, err := DecodeFrame(testKey, wire[:len(wire)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := DecodeFrame(testKey, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestFrameRejectsOversizedPayload(t *testing.T) {
	if _, err := EncodeFrame(testKey, Frame{Type: TIRRPush, Payload: make([]byte, MaxPayload+1)}); err == nil {
		t.Error("oversized payload encoded")
	}
}

func TestPeekTypeSeq(t *testing.T) {
	wire, err := EncodeFrame(testKey, Frame{Type: TFetchResp, Seq: 0x01020304})
	if err != nil {
		t.Fatal(err)
	}
	typ, seq, ok := PeekTypeSeq(wire)
	if !ok || typ != TFetchResp || seq != 0x01020304 {
		t.Errorf("PeekTypeSeq = (%d, %#x, %v)", typ, seq, ok)
	}
	if _, _, ok := PeekTypeSeq(wire[:headerLen-1]); ok {
		t.Error("PeekTypeSeq accepted a short buffer")
	}
}

func TestIRRPushRoundTrip(t *testing.T) {
	zone := dnswire.MustName("example.")
	msg := &dnswire.Message{
		Question: []dnswire.Question{{Name: zone, Type: dnswire.TypeNS, Class: dnswire.ClassIN}},
		Answer: []dnswire.RR{{
			Name: zone, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.NS{Host: dnswire.MustName("ns1.example.")},
		}},
	}
	b, err := EncodeIRRPush(zone, msg)
	if err != nil {
		t.Fatal(err)
	}
	gotZone, gotMsg, err := DecodeIRRPush(b)
	if err != nil {
		t.Fatal(err)
	}
	if gotZone != zone {
		t.Errorf("zone = %q want %q", gotZone, zone)
	}
	if len(gotMsg.Answer) != 1 || gotMsg.Answer[0].Name != zone {
		t.Errorf("message answer = %+v", gotMsg.Answer)
	}
}

// TestChallengeSmallerThanRequest pins the anti-amplification property:
// the challenge reply to an unconfirmed source is never larger than the
// smallest possible request frame, so the mesh port cannot amplify
// reflected traffic.
func TestChallengeSmallerThanRequest(t *testing.T) {
	challenge, err := EncodeFrame(testKey, Frame{Type: TChallenge, Seq: 1, Cookie: 0x1234})
	if err != nil {
		t.Fatal(err)
	}
	smallestReq, err := EncodeFrame(testKey, Frame{Type: TPing, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(challenge) > len(smallestReq) {
		t.Errorf("challenge is %d bytes, larger than the %d-byte minimum request: amplification vector",
			len(challenge), len(smallestReq))
	}
}

// FuzzMeshFrame drives the authenticated-frame and payload decoders with
// arbitrary bytes. The contract is the same as every parser in the repo:
// hostile input is rejected, never a panic — this port faces other
// machines on the network.
func FuzzMeshFrame(f *testing.F) {
	pingFrame, _ := EncodeFrame(testKey, Frame{Type: TPing, Seq: 1, Cookie: 7})
	zone := dnswire.MustName("seed.example.")
	push, _ := EncodeIRRPush(zone, &dnswire.Message{
		Answer: []dnswire.RR{{
			Name: zone, Class: dnswire.ClassIN, TTL: 60,
			Data: dnswire.NS{Host: dnswire.MustName("ns.seed.example.")},
		}},
	})
	pushFrame, _ := EncodeFrame(testKey, Frame{Type: TIRRPush, Seq: 2, Payload: push})

	f.Add(pingFrame)
	f.Add(pushFrame)
	f.Add(pingFrame[:headerLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		// The outer frame decoder must reject anything unauthenticated.
		if fr, err := DecodeFrame(testKey, b); err == nil {
			// Authenticated frames still carry attacker-influenced
			// payloads once a key leaks: payload decoders must not panic.
			_, _, _ = DecodeIRRPush(fr.Payload)
			_, _ = DecodeMsg(fr.Payload)
		}
		PeekTypeSeq(b)
		// Payload decoders are also reachable via authenticated peers.
		_, _, _ = DecodeIRRPush(b)
		_, _ = DecodeMsg(b)
	})
}
