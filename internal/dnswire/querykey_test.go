package dnswire

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"

	"resilientdns/internal/race"
)

// TestQueryKey: which queries QueryKey keys, and which spellings share a
// key — case and the advertised payload size do not count, RD and the
// presence of an OPT do.
func TestQueryKey(t *testing.T) {
	seeds := queryKeySeeds(t)
	for name, want := range map[string]bool{
		"plain": true, "opt": true,
		"trailing-byte": false, "opt-with-option": false, "compressed": false, "an-1": false,
		"reserved-label-type": false,
	} {
		if _, _, ok := QueryKey(seeds[name], nil); ok != want {
			t.Errorf("%s: ok = %v, want %v", name, ok, want)
		}
	}
	key := func(edit func(*Message)) []byte {
		q := NewQuery(7, MustName("www.example."), TypeA)
		q.Flags.RecursionDesired = true
		if edit != nil {
			edit(q)
		}
		k, id, ok := QueryKey(mustPack(t, q), nil)
		if !ok || id != q.ID {
			t.Fatalf("%v: ok %v, ID %d", q, ok, id)
		}
		return k
	}
	base := key(nil)
	if other := key(func(q *Message) { q.ID = 8 }); !bytes.Equal(base, other) {
		t.Error("the ID changed the key")
	}
	edns := key(func(q *Message) { q.SetEDNS0(1232) })
	if small := key(func(q *Message) { q.SetEDNS0(400) }); !bytes.Equal(edns, small) {
		t.Error("the advertised payload size changed the key")
	}
	if bytes.Equal(base, edns) || bytes.Equal(base, key(func(q *Message) { q.Flags.RecursionDesired = false })) {
		t.Error("an OPT, or the RD bit, left the key as it was")
	}
	if upper, _, ok := QueryKey(swapNameCase(mustPack(t, NewQuery(7, MustName("www.example."), TypeA))), nil); !ok ||
		!bytes.Equal(upper, key(func(q *Message) { q.Flags.RecursionDesired = false })) {
		t.Error("an upper-case spelling got another key")
	}
	if _, _, ok := QueryKey(mustPack(t, NewQuery(7, Root, TypeNS)), nil); !ok {
		t.Error("a query for the root has no key")
	}
	for _, refuse := range []func(*Message){
		func(q *Message) { q.Flags.Response = true },
		func(q *Message) { q.Opcode = 2 },
		func(q *Message) { q.Question = append(q.Question, q.Question[0]) },
	} {
		q := NewQuery(7, MustName("www.example."), TypeA)
		refuse(q)
		if _, _, ok := QueryKey(mustPack(t, q), nil); ok {
			t.Errorf("%v keyed", q)
		}
	}
	wire := seeds["plain"]
	dst := make([]byte, 0, 2*MaxNameWireLen)
	if allocs := testing.AllocsPerRun(100, func() { QueryKey(wire, dst) }); allocs != 0 && !race.Enabled {
		t.Errorf("QueryKey allocates %.0f/op into a buffer with room, want 0", allocs)
	}
}

// TestAnswerTTLs: the offsets point at the answer records' TTLs — not the
// question's, not the OPT's — so rewriting them changes exactly those.
func TestAnswerTTLs(t *testing.T) {
	q := NewQuery(7, MustName("two.example."), TypeA)
	q.SetEDNS0(1232)
	r := q.Reply()
	for _, a := range []string{"192.0.2.1", "192.0.2.2"} {
		r.Answer = append(r.Answer, RR{Name: MustName("two.example."), Class: ClassIN, TTL: 300,
			Data: A{Addr: netip.MustParseAddr(a)}})
	}
	r.SetEDNS0(DefaultEDNS0PayloadSize)
	wire := mustPack(t, r)
	offs, err := AnswerTTLs(wire, nil)
	if err != nil || len(offs) != 2 {
		t.Fatalf("AnswerTTLs = %v, %v; want two offsets", offs, err)
	}
	for _, off := range offs {
		binary.BigEndian.PutUint32(wire[off:], 42)
	}
	m, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack after rewriting: %v", err)
	}
	if m.Answer[0].TTL != 42 || m.Answer[1].TTL != 42 || m.Additional[0].TTL != 0 {
		t.Errorf("after rewriting: %v", m)
	}
	if _, err := AnswerTTLs(wire[:len(wire)-20], nil); err == nil {
		t.Error("a torn message walked")
	}
}
