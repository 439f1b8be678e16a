package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/. It is a generator, not a test: run
//
//	WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus ./internal/dnswire
//
// after changing the wire format, and commit the result. Keeping the
// corpus in the repo means the CI fuzz smoke (make fuzz) starts from
// hostile shapes — pointer loops, torn RRs, DNSSEC payloads — instead
// of an empty corpus.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz seed corpora")
	}

	writeCorpus(t, "FuzzUnpack", unpackSeeds(t), nil)
	writeCorpus(t, "FuzzCanonicalName", nil, []string{
		strings.Repeat("a", 63) + ".example.",  // maximum label
		strings.Repeat("a", 63) + "a.example.", // one past the label limit
		strings.Repeat("ab1.", 63),             // near the 255-octet name ceiling
		"www.EXAMPLE.com",                      // case folding
		"a..b",                                 // empty interior label
		".",                                    // bare root
		"..",                                   // root with empty label
		"_dmarc._tcp.example.com.",             // underscore service labels
		"xn--bcher-kva.example.",               // punycode
		"a b.example.",                         // embedded space
		"a\x00b.example.",                      // embedded NUL
		"-leading.example.",                    // leading hyphen
		"*.wildcard.example.",                  // wildcard label
	})
}

func unpackSeeds(t testing.TB) map[string][]byte {
	t.Helper()
	seeds := make(map[string][]byte)

	// A compression pointer that points at itself: the decoder's loop
	// guard must trip, never spin.
	selfLoop := []byte{
		0x00, 0x07, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // header, QDCount=1
		0xC0, 0x0C, // name: pointer to offset 12 (itself)
		0x00, 0x01, 0x00, 0x01, // QTYPE=A QCLASS=IN
	}
	seeds["pointer-self-loop"] = selfLoop

	// Two pointers that chase each other.
	mutualLoop := []byte{
		0x00, 0x07, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x01, 'a', 0xC0, 0x10, // offset 12: label "a" then pointer to 16
		0x01, 'b', 0xC0, 0x0C, // offset 16: label "b" then pointer to 12
		0x00, 0x01, 0x00, 0x01,
	}
	seeds["pointer-mutual-loop"] = mutualLoop

	// A forward pointer (illegal: pointers must point backwards).
	forward := []byte{
		0x00, 0x07, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0xC0, 0x20, // pointer past the end of the question
		0x00, 0x01, 0x00, 0x01,
	}
	seeds["pointer-forward"] = forward

	// EDNS0 query: OPT pseudo-record in the additional section.
	ednsQ := NewQuery(0x1234, MustName("edns.example."), TypeA)
	ednsQ.SetEDNS0(1232)
	seeds["edns0-query"] = mustPack(t, ednsQ)

	// DNSSEC-shaped response: DNSKEY + RRSIG + DS answer records.
	sec := NewQuery(0x4242, MustName("signed.example."), TypeDNSKEY).Reply()
	sec.Answer = []RR{
		{Name: MustName("signed.example."), Class: ClassIN, TTL: 3600,
			Data: DNSKEY{Flags: 257, Protocol: 3, Algorithm: 13, PublicKey: []byte{1, 2, 3, 4}}},
		{Name: MustName("signed.example."), Class: ClassIN, TTL: 3600,
			Data: RRSIG{TypeCovered: TypeDNSKEY, Algorithm: 13, Labels: 2, OrigTTL: 3600,
				Expiration: 1767225600, Inception: 1764633600, KeyTag: 12345,
				SignerName: MustName("signed.example."), Signature: []byte{9, 9, 9, 9}}},
		{Name: MustName("signed.example."), Class: ClassIN, TTL: 3600,
			Data: DS{KeyTag: 12345, Algorithm: 13, DigestType: 2, Digest: []byte{5, 6, 7, 8}}},
	}
	seeds["dnssec-response"] = mustPack(t, sec)

	// AXFR-style stream: SOA ... SOA delimiting, mid-message.
	axfr := NewQuery(0x0001, MustName("zone.example."), TypeAXFR).Reply()
	soa := RR{Name: MustName("zone.example."), Class: ClassIN, TTL: 3600,
		Data: SOA{MName: MustName("ns.zone.example."), RName: MustName("admin.zone.example."),
			Serial: 2026080601, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}}
	axfr.Answer = []RR{
		soa,
		{Name: MustName("www.zone.example."), Class: ClassIN, TTL: 300,
			Data: A{Addr: netip.MustParseAddr("192.0.2.80")}},
		soa,
	}
	seeds["axfr-soa-delimited"] = mustPack(t, axfr)

	// A real response torn at several hostile offsets: inside the
	// header, inside a name, and inside rdata.
	resp := NewQuery(0x2222, MustName("torn.example."), TypeA).Reply()
	resp.Answer = []RR{{Name: MustName("torn.example."), Class: ClassIN, TTL: 60,
		Data: A{Addr: netip.MustParseAddr("192.0.2.1")}}}
	wire := mustPack(t, resp)
	seeds["torn-header"] = wire[:8]
	seeds["torn-question"] = wire[:16]
	seeds["torn-rdata"] = wire[:len(wire)-2]

	// Valid message with trailing garbage (must be rejected, not read OOB).
	seeds["trailing-bytes"] = append(append([]byte{}, wire...), 0xDE, 0xAD, 0xBE, 0xEF)

	// Counts that promise more records than the body carries.
	lying := append([]byte{}, wire...)
	lying[7] = 0xFF // ANCount low byte
	seeds["lying-ancount"] = lying

	// A name that outgrows 255 octets only through a compression pointer:
	// the second question is one 63-byte label, then a pointer to the
	// first, a 192-byte name the decoder has already cached.
	tooLong := []byte{0x00, 0x08, 0x01, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00}
	for i := 0; i < 3; i++ {
		tooLong = append(append(tooLong, 63), bytes.Repeat([]byte{'a'}, 63)...)
	}
	tooLong = append(tooLong, 0, 0x00, 0x01, 0x00, 0x01, 63)
	tooLong = append(append(tooLong, bytes.Repeat([]byte{'b'}, 63)...), 0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01)
	seeds["name-too-long-via-pointer"] = tooLong

	// A label with a character no name may hold.
	badLabel := mustPack(t, NewQuery(0x0009, MustName("bad.example."), TypeA))
	badLabel[headerLen+2] = '('
	seeds["bad-label"] = badLabel

	// TXT with a maximum-length character string.
	txt := NewQuery(0x3333, MustName("txt.example."), TypeTXT).Reply()
	txt.Answer = []RR{{Name: MustName("txt.example."), Class: ClassIN, TTL: 60,
		Data: TXT{Strings: []string{strings.Repeat("x", 255), ""}}}}
	seeds["txt-max-string"] = mustPack(t, txt)

	return seeds
}

func mustPack(t testing.TB, m *Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("packing corpus seed: %v", err)
	}
	return b
}

// writeCorpus writes seeds in the go-fuzz corpus file encoding. Exactly
// one of byteSeeds/stringSeeds is used, matching the target's signature.
func writeCorpus(t *testing.T, target string, byteSeeds map[string][]byte, stringSeeds []string) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, body string) {
		content := "go test fuzz v1\n" + body + "\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range byteSeeds {
		write("seed-"+name, fmt.Sprintf("[]byte(%q)", b))
	}
	for i, s := range stringSeeds {
		write(fmt.Sprintf("seed-%02d", i), fmt.Sprintf("string(%q)", s))
	}
}

// TestUnpackSeedsReachNameErrors: the seeds built for the decoder's two
// name errors reach them, so the fuzz smoke starts from both.
func TestUnpackSeedsReachNameErrors(t *testing.T) {
	seeds := unpackSeeds(t)
	for name, want := range map[string]error{
		"name-too-long-via-pointer": ErrNameTooLong,
		"bad-label":                 ErrBadLabel,
	} {
		if _, err := Unpack(seeds[name]); !errors.Is(err, want) {
			t.Errorf("seed %s: Unpack error %v, want %v", name, err, want)
		}
	}
}
