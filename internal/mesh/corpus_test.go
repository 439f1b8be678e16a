package mesh

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"resilientdns/internal/dnswire"
)

// TestWriteFuzzCorpus regenerates the checked-in FuzzMeshFrame seed
// corpus under testdata/fuzz/. It is a generator, not a test: run
//
//	WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/mesh
//
// after changing the frame format, and commit the result. The seeds put
// the CI fuzz smoke directly into the states that matter for a port
// exposed to the network: valid frames of every type, MAC damage,
// truncations, and lying length prefixes.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz seed corpora")
	}

	key := []byte("fleet-shared-key")
	seeds := map[string][]byte{}

	pingFrame, err := EncodeFrame(key, Frame{Type: TPing, Seq: 11, Cookie: 0xfeed})
	if err != nil {
		t.Fatal(err)
	}
	seeds["ping-valid"] = pingFrame

	zone := dnswire.MustName("corpus.example.")
	push, err := EncodeIRRPush(zone, &dnswire.Message{
		Question: []dnswire.Question{{Name: zone, Type: dnswire.TypeNS, Class: dnswire.ClassIN}},
		Answer: []dnswire.RR{{
			Name: zone, Class: dnswire.ClassIN, TTL: 600,
			Data: dnswire.NS{Host: dnswire.MustName("ns.corpus.example.")},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	pushFrame, err := EncodeFrame(key, Frame{Type: TIRRPush, Seq: 12, Cookie: 0xfeed, Payload: push})
	if err != nil {
		t.Fatal(err)
	}
	seeds["irrpush-valid"] = pushFrame

	q := dnswire.NewQuery(9, dnswire.MustName("www.corpus.example."), dnswire.TypeA)
	fetch, err := EncodeMsg(q)
	if err != nil {
		t.Fatal(err)
	}
	fetchFrame, err := EncodeFrame(key, Frame{Type: TFetchReq, Seq: 13, Cookie: 0xfeed, Payload: fetch})
	if err != nil {
		t.Fatal(err)
	}
	seeds["fetchreq-valid"] = fetchFrame

	challenge, err := EncodeFrame(key, Frame{Type: TChallenge, Seq: 11, Cookie: 0xbeef})
	if err != nil {
		t.Fatal(err)
	}
	seeds["challenge-valid"] = challenge

	// MAC damage: last byte of the truncated tag flipped.
	macBad := append([]byte{}, pingFrame...)
	macBad[len(macBad)-1] ^= 0x01
	seeds["ping-bad-mac"] = macBad

	// Header damage and truncations at hostile offsets.
	badMagic := append([]byte{}, pingFrame...)
	badMagic[0] ^= 0xFF
	seeds["ping-bad-magic"] = badMagic
	badVersion := append([]byte{}, pingFrame...)
	badVersion[2] = 0xFF
	seeds["ping-bad-version"] = badVersion
	seeds["ping-torn-header"] = pingFrame[:headerLen-3]
	seeds["ping-torn-payload"] = pingFrame[:headerLen+2] // a ping has no payload: the cut lands in the tag
	seeds["irrpush-torn-payload"] = pushFrame[:headerLen+2]
	seeds["ping-torn-mac"] = pingFrame[:len(pingFrame)-4]

	// A header promising more payload than the datagram carries.
	lying := append([]byte{}, pingFrame[:headerLen]...)
	lying[headerLen-2] = 0xFF
	lying[headerLen-1] = 0xFF
	seeds["ping-lying-length"] = lying

	// Bare payloads (the inner decoders are fuzzed directly too).
	seeds["payload-irrpush"] = push
	seeds["payload-msg"] = fetch

	dir := filepath.Join("testdata", "fuzz", "FuzzMeshFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range seeds {
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
