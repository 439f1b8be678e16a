package dnswire

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"testing"
)

// FuzzUnpack exercises the wire decoder with arbitrary bytes: it must
// never panic, must decode every name as a decode without the name cache
// does (and UnpackReply as Unpack does), and any message it accepts must
// re-pack and re-parse to an
// equivalent wire form (decode/encode stability), and must pack the same
// after the buffer it was decoded from is overwritten: Unpack copies the
// wire only when a record keeps bytes of it, and such a record must then
// keep the copy's, never the caller's.
func FuzzUnpack(f *testing.F) {
	// Seeds: a real query, a real response, a truncated header, and junk.
	q := NewQuery(7, MustName("www.example.com."), TypeA)
	qw, _ := q.Pack()
	f.Add(qw)
	r := q.Reply()
	r.Answer = []RR{{Name: MustName("www.example.com."), Class: ClassIN, TTL: 300,
		Data: CNAME{Target: MustName("web.example.com.")}}}
	rw, _ := r.Pack()
	f.Add(rw)
	f.Add(rw[:8])
	e := q.Reply()
	e.Additional = []RR{{Name: Root, Class: 4096, Data: OPT{Options: []byte{0, 10, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8}}}}
	e.Answer = []RR{{Name: MustName("example.com."), Class: ClassIN, TTL: 300,
		Data: DNSKEY{Flags: 257, Protocol: 3, Algorithm: 8, PublicKey: []byte{1, 2, 3, 4}}}}
	ew, _ := e.Pack()
	f.Add(ew)
	f.Add([]byte{0xC0, 0x0C, 0xC0, 0x0C})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		m, err := Unpack(buf)
		if err != nil {
			return
		}
		// Differential: the name cache (exact offsets and the tails of
		// names decoded before) and UnpackReply's hint only ever hand back
		// the name a decode with neither gives.
		ref := unpacker{msg: data, nNames: nameCacheSize}
		for i := range ref.names {
			ref.names[i].off = math.MaxInt32 // matches no offset, is below none
		}
		plain, err := ref.message(nil)
		if err != nil {
			t.Fatalf("decodes with the name cache, not without it: %v", err)
		}
		if !reflect.DeepEqual(m, plain) {
			t.Fatalf("the name cache changed the message:\n%v\nwithout it:\n%v", m, plain)
		}
		hint := MustName("www.example.com.")
		if len(plain.Question) > 0 {
			hint = plain.Question[0].Name
		}
		hinted, err := UnpackReply(data, NewQuery(0, hint, TypeA))
		if err != nil {
			t.Fatalf("UnpackReply fails where Unpack does not: %v", err)
		}
		h := *hinted
		h.pooled = nil
		if !reflect.DeepEqual(&h, plain) {
			t.Fatalf("UnpackReply changed the message:\n%v\nUnpack:\n%v", &h, plain)
		}
		Release(hinted)
		wire, err := m.Pack()
		if err != nil {
			// Some decoded messages cannot be re-encoded (e.g. a TXT
			// that decoded to zero strings); they must error, not panic.
			return
		}
		for i := range buf {
			buf[i] = ^buf[i]
		}
		if again, err := m.Pack(); err != nil || !bytes.Equal(wire, again) {
			t.Fatalf("the message changed with the buffer it was decoded from:\n%x\n%x (%v)", wire, again, err)
		}
		m2, err := Unpack(wire)
		if err != nil {
			t.Fatalf("re-unpack of repacked message failed: %v", err)
		}
		w2, err := m2.Pack()
		if err != nil {
			t.Fatalf("re-pack failed: %v", err)
		}
		if !bytes.Equal(wire, w2) {
			t.Fatalf("pack not stable:\n%x\n%x", wire, w2)
		}
	})
}

// FuzzCanonicalName checks that name canonicalisation never panics and
// that accepted names survive wire round trips.
func FuzzCanonicalName(f *testing.F) {
	for _, s := range []string{"", ".", "www.example.com", "a..b", "UPPER.Case.", "xn--bcher-kva.example"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := CanonicalName(s)
		if err != nil {
			return
		}
		wire, err := appendName(nil, n)
		if err != nil {
			t.Fatalf("accepted name %q does not encode: %v", n, err)
		}
		got, _, err := decodeName(wire, 0)
		if err != nil {
			t.Fatalf("accepted name %q does not decode: %v", n, err)
		}
		if got != n {
			t.Fatalf("name round trip: %q -> %q", n, got)
		}
	})
}

// messageKey is the key QueryKey gives a plain query, built from the
// unpacked message instead of the wire.
func messageKey(m *Message) []byte {
	q := m.Question[0]
	key := []byte(q.Name)
	var bits byte
	if m.Flags.RecursionDesired {
		bits |= 1
	}
	if _, ok := m.EDNS0PayloadSize(); ok {
		bits |= 2
	}
	return append(key, byte(q.Type>>8), byte(q.Type), byte(q.Class>>8), byte(q.Class), bits)
}

// swapNameCase returns wire with the letters of its (uncompressed)
// question name in the other case.
func swapNameCase(wire []byte) []byte {
	out := bytes.Clone(wire)
	for off := headerLen; off < len(out) && out[off] != 0; off += 1 + int(out[off]) {
		for i := off + 1; i <= off+int(out[off]) && i < len(out); i++ {
			if c := out[i] | 0x20; c >= 'a' && c <= 'z' {
				out[i] ^= 0x20
			}
		}
	}
	return out
}

// queryKeySeeds are hand-made queries on either side of QueryKey's line.
func queryKeySeeds(t testing.TB) map[string][]byte {
	plain := NewQuery(0x0d0d, MustName("www.Example.com."), TypeA)
	plain.Flags.RecursionDesired = true
	wire := mustPack(t, plain)
	seeds := map[string][]byte{"plain": wire, "trailing-byte": append(bytes.Clone(wire), 0)}

	opt := NewQuery(0x0e0e, MustName("edns.example."), TypeAAAA)
	opt.SetEDNS0(1232)
	seeds["opt"] = mustPack(t, opt)
	opt.Additional[0].Data = OPT{Options: []byte{0, 10, 0, 2, 1, 2}} // a cookie-shaped option
	seeds["opt-with-option"] = mustPack(t, opt)

	// The OPT owner as a pointer to the question name: a compressed name.
	compressed := append(mustPack(t, NewQuery(0x0f0f, MustName("c.example."), TypeA)),
		0xC0, 0x0C, 0x00, 0x29, 0x04, 0xD0, 0, 0, 0, 0, 0, 0)
	compressed[11] = 1 // ARCOUNT
	seeds["compressed"] = compressed

	// A first byte of 0x40 is a reserved label type, not a 64-byte label.
	reserved := append(mustPack(t, NewQuery(0x1111, Root, TypeA))[:headerLen:headerLen], 0x40)
	reserved = append(append(reserved, bytes.Repeat([]byte{'a'}, 64)...), 0, 0, 1, 0, 1)
	seeds["reserved-label-type"] = reserved

	answered := NewQuery(0x1010, MustName("an.example."), TypeA)
	answered.Answer = []RR{{Name: MustName("an.example."), Class: ClassIN, TTL: 60,
		Data: A{Addr: netip.MustParseAddr("192.0.2.1")}}}
	seeds["an-1"] = mustPack(t, answered)
	return seeds
}

// FuzzQueryKey holds QueryKey to Unpack: whatever it keys, Unpack accepts
// as a message with one question and the same ID, whose own key is the
// one QueryKey built; and the same query spelt in the other case gets the
// same key.
func FuzzQueryKey(f *testing.F) {
	for _, seeds := range []map[string][]byte{unpackSeeds(f), queryKeySeeds(f)} {
		for _, seed := range seeds {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		key, id, ok := QueryKey(wire, nil)
		if !ok {
			return
		}
		m, err := Unpack(wire)
		if err != nil {
			t.Fatalf("QueryKey keyed %x, which Unpack rejects: %v", wire, err)
		}
		if len(m.Question) != 1 || m.ID != id {
			t.Fatalf("QueryKey keyed %x with ID %d; Unpack reads ID %d and %d questions", wire, id, m.ID, len(m.Question))
		}
		if want := messageKey(m); !bytes.Equal(key, want) {
			t.Fatalf("QueryKey built %x, the unpacked message says %x", key, want)
		}
		if other, _, ok := QueryKey(swapNameCase(wire), nil); !ok || !bytes.Equal(other, key) {
			t.Fatalf("the other case keys %x (ok %v), want %x", other, ok, key)
		}
	})
}
