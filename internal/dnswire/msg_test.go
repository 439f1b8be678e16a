package dnswire

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"

	"resilientdns/internal/race"
)

func mkA(name string, ttl uint32, ip string) RR {
	return RR{
		Name:  MustName(name),
		Class: ClassIN,
		TTL:   ttl,
		Data:  A{Addr: netip.MustParseAddr(ip)},
	}
}

func mkNS(name string, ttl uint32, host string) RR {
	return RR{
		Name:  MustName(name),
		Class: ClassIN,
		TTL:   ttl,
		Data:  NS{Host: MustName(host)},
	}
}

func sampleMessage() *Message {
	m := NewQuery(0x1234, MustName("www.example.com"), TypeA)
	m.Flags.RecursionDesired = true
	r := m.Reply()
	r.Flags.Authoritative = true
	r.Answer = []RR{mkA("www.example.com", 3600, "192.0.2.1")}
	r.Authority = []RR{
		mkNS("example.com", 86400, "ns1.example.com"),
		mkNS("example.com", 86400, "ns2.example.com"),
	}
	r.Additional = []RR{
		mkA("ns1.example.com", 86400, "192.0.2.53"),
		mkA("ns2.example.com", 86400, "192.0.2.54"),
	}
	return r
}

func TestPackUnpackRoundTrip(t *testing.T) {
	msg := sampleMessage()
	wire, err := msg.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(msg, got) {
		t.Errorf("round trip mismatch:\nsent: %+v\ngot:  %+v", msg, got)
	}
}

func TestPackCompressesNames(t *testing.T) {
	msg := sampleMessage()
	wire, err := msg.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	// Uncompressed encoding of all names would be much larger. With
	// compression, "example.com." appears in full exactly once.
	uncompressed := 0
	for _, q := range msg.Question {
		uncompressed += q.Name.wireLen() + 4
	}
	for _, rr := range append(append(append([]RR{}, msg.Answer...), msg.Authority...), msg.Additional...) {
		uncompressed += rr.Name.wireLen() + 10
		switch d := rr.Data.(type) {
		case A:
			uncompressed += 4
		case NS:
			uncompressed += d.Host.wireLen()
		}
	}
	uncompressed += headerLen
	if len(wire) >= uncompressed {
		t.Errorf("compressed size %d >= uncompressed size %d", len(wire), uncompressed)
	}
}

func TestUnpackRejectsTruncated(t *testing.T) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	for _, cut := range []int{1, headerLen - 1, headerLen + 3, len(wire) - 1} {
		if _, err := Unpack(wire[:cut]); err == nil {
			t.Errorf("Unpack of %d/%d bytes succeeded, want error", cut, len(wire))
		}
	}
}

func TestUnpackRejectsTrailingBytes(t *testing.T) {
	wire, err := sampleMessage().Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	if _, err := Unpack(append(wire, 0xAB)); err == nil {
		t.Error("Unpack with trailing byte succeeded, want error")
	}
}

func TestUnpackRejectsPointerLoop(t *testing.T) {
	// Craft a message whose question name is a pointer to itself.
	wire := make([]byte, headerLen)
	wire[0], wire[1] = 0xBE, 0xEF
	wire[5] = 1 // QDCOUNT = 1
	// Name at offset 12: pointer to offset 12 (forward/self reference).
	wire = append(wire, 0xC0, 12, 0, 1, 0, 1)
	if _, err := Unpack(wire); err == nil {
		t.Error("Unpack with self-referential pointer succeeded, want error")
	}
}

func TestRDataRoundTripAllTypes(t *testing.T) {
	rrs := []RR{
		mkA("host.example.", 60, "203.0.113.9"),
		{Name: MustName("host.example."), Class: ClassIN, TTL: 60,
			Data: AAAA{Addr: netip.MustParseAddr("2001:db8::1")}},
		mkNS("example.", 300, "ns.example."),
		{Name: MustName("alias.example."), Class: ClassIN, TTL: 60,
			Data: CNAME{Target: MustName("real.example.")}},
		{Name: MustName("9.113.0.203.in-addr.arpa."), Class: ClassIN, TTL: 60,
			Data: PTR{Target: MustName("host.example.")}},
		{Name: MustName("example."), Class: ClassIN, TTL: 3600,
			Data: SOA{MName: MustName("ns.example."), RName: MustName("admin.example."),
				Serial: 2026070401, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}},
		{Name: MustName("example."), Class: ClassIN, TTL: 600,
			Data: MX{Preference: 10, Host: MustName("mail.example.")}},
		{Name: MustName("example."), Class: ClassIN, TTL: 600,
			Data: TXT{Strings: []string{"v=spf1 -all", "second string"}}},
		{Name: MustName("_dns._udp.example."), Class: ClassIN, TTL: 600,
			Data: SRV{Priority: 1, Weight: 5, Port: 53, Target: MustName("ns.example.")}},
		{Name: MustName("example."), Class: ClassIN, TTL: 60,
			Data: Unknown{TypeCode: Type(4242), Raw: []byte{1, 2, 3, 4}}},
	}
	for _, rr := range rrs {
		t.Run(rr.Type().String(), func(t *testing.T) {
			m := &Message{ID: 7, Answer: []RR{rr}}
			wire, err := m.Pack()
			if err != nil {
				t.Fatalf("Pack: %v", err)
			}
			got, err := Unpack(wire)
			if err != nil {
				t.Fatalf("Unpack: %v", err)
			}
			if len(got.Answer) != 1 {
				t.Fatalf("got %d answers, want 1", len(got.Answer))
			}
			if !reflect.DeepEqual(got.Answer[0], rr) {
				t.Errorf("round trip mismatch: sent %+v got %+v", rr, got.Answer[0])
			}
		})
	}
}

// TestRDataLenMatchesPackedLength: RDataLen is the RDLENGTH each type
// packs to when nothing in it can be compressed (the owner "a." shares
// no suffix with any RDATA name below).
func TestRDataLenMatchesPackedLength(t *testing.T) {
	for _, d := range []RData{
		A{Addr: netip.MustParseAddr("203.0.113.9")},
		AAAA{Addr: netip.MustParseAddr("2001:db8::1")},
		NS{Host: MustName("ns.b.")},
		CNAME{Target: MustName("c.b.")},
		PTR{Target: MustName("p.b.")},
		SOA{MName: MustName("ns.b."), RName: MustName("admin.c."), Serial: 1, Minimum: 300},
		MX{Preference: 10, Host: MustName("mx.b.")},
		TXT{Strings: []string{"v=spf1 -all", ""}},
		SRV{Priority: 1, Weight: 5, Port: 53, Target: MustName("t.b.")},
		OPT{Options: []byte{0, 10, 0, 0}},
		Unknown{TypeCode: Type(4242), Raw: []byte{1, 2, 3}},
		DNSKEY{Flags: DNSKEYFlagZone, Protocol: 3, Algorithm: 13, PublicKey: make([]byte, 64)},
		DS{KeyTag: 1, Algorithm: 13, DigestType: 2, Digest: make([]byte, 32)},
		RRSIG{TypeCovered: TypeA, Algorithm: 13, SignerName: MustName("b."), Signature: make([]byte, 64)},
	} {
		wire, err := (&Message{Answer: []RR{{Name: MustName("a."), Class: ClassIN, Data: d}}}).Pack()
		if err != nil {
			t.Fatalf("%s: %v", d.Type(), err)
		}
		// Header 12, owner "a." 3, type, class and TTL 8, then RDLENGTH.
		if got, want := RDataLen(d), int(wire[23])<<8|int(wire[24]); got != want {
			t.Errorf("%s: RDataLen = %d, packed RDLENGTH %d", d.Type(), got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { RDataLen(d) }); allocs != 0 && !race.Enabled {
			t.Errorf("%s: RDataLen allocates %.0f", d.Type(), allocs)
		}
	}
}

func TestInvalidRData(t *testing.T) {
	tests := []struct {
		name string
		rr   RR
	}{
		{"A with IPv6", RR{Name: "x.", Class: ClassIN, Data: A{Addr: netip.MustParseAddr("::1")}}},
		{"AAAA with IPv4", RR{Name: "x.", Class: ClassIN, Data: AAAA{Addr: netip.MustParseAddr("1.2.3.4")}}},
		{"empty TXT", RR{Name: "x.", Class: ClassIN, Data: TXT{}}},
		{"nil data", RR{Name: "x.", Class: ClassIN}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := &Message{Answer: []RR{tt.rr}}
			if _, err := m.Pack(); err == nil {
				t.Errorf("Pack succeeded, want error")
			}
		})
	}
}

func TestReplyEchoesQuestion(t *testing.T) {
	q := NewQuery(99, MustName("a.b.c"), TypeNS)
	q.Flags.RecursionDesired = true
	r := q.Reply()
	if !r.Flags.Response {
		t.Error("Reply did not set QR")
	}
	if r.ID != q.ID {
		t.Errorf("Reply ID = %d, want %d", r.ID, q.ID)
	}
	if !r.Flags.RecursionDesired {
		t.Error("Reply did not echo RD")
	}
	if len(r.Question) != 1 || r.Question[0] != q.Question[0] {
		t.Errorf("Reply question = %v, want %v", r.Question, q.Question)
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	for _, flags := range []Flags{
		{},
		{Response: true},
		{Response: true, Authoritative: true, RecursionAvailable: true},
		{Truncated: true, RecursionDesired: true},
		{AuthenticData: true, CheckingDisabled: true},
	} {
		m := &Message{ID: 1, Flags: flags, Opcode: OpcodeQuery, RCode: RCodeNXDomain}
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		got, err := Unpack(wire)
		if err != nil {
			t.Fatalf("Unpack: %v", err)
		}
		if got.Flags != flags {
			t.Errorf("flags round trip: sent %+v got %+v", flags, got.Flags)
		}
		if got.RCode != RCodeNXDomain {
			t.Errorf("rcode round trip: got %v", got.RCode)
		}
	}
}

// randomRR builds a random RR over a small set of types.
func randomRR(r *rand.Rand) RR {
	name := randomName(r)
	ttl := uint32(r.Intn(7 * 86400))
	switch r.Intn(5) {
	case 0:
		var v4 [4]byte
		r.Read(v4[:])
		return RR{Name: name, Class: ClassIN, TTL: ttl, Data: A{Addr: netip.AddrFrom4(v4)}}
	case 1:
		return RR{Name: name, Class: ClassIN, TTL: ttl, Data: NS{Host: randomName(r)}}
	case 2:
		return RR{Name: name, Class: ClassIN, TTL: ttl, Data: CNAME{Target: randomName(r)}}
	case 3:
		return RR{Name: name, Class: ClassIN, TTL: ttl,
			Data: MX{Preference: uint16(r.Intn(100)), Host: randomName(r)}}
	default:
		return RR{Name: name, Class: ClassIN, TTL: ttl,
			Data: TXT{Strings: []string{"payload"}}}
	}
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewQuery(uint16(r.Intn(1<<16)), randomName(r), TypeA)
		m.Flags.Response = true
		for i, n := 0, r.Intn(4); i < n; i++ {
			m.Answer = append(m.Answer, randomRR(r))
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			m.Authority = append(m.Authority, randomRR(r))
		}
		for i, n := 0, r.Intn(4); i < n; i++ {
			m.Additional = append(m.Additional, randomRR(r))
		}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnpackNeverPanics(t *testing.T) {
	// Unpack must reject, not panic on, arbitrary byte soup.
	f := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Unpack(b) //nolint:errcheck // errors are expected for random input
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUnpackFuzzedWire(t *testing.T) {
	// Flip bytes in a valid message; Unpack must never panic and, when it
	// succeeds, repacking must succeed too.
	wire, err := sampleMessage().Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), wire...)
		for j, n := 0, 1+r.Intn(4); j < n; j++ {
			mut[r.Intn(len(mut))] = byte(r.Intn(256))
		}
		m, err := Unpack(mut)
		if err != nil {
			continue
		}
		if _, err := m.Pack(); err != nil {
			// Repacking may legitimately fail for e.g. a mutated TXT
			// that decoded to empty strings; it must not panic.
			continue
		}
	}
}
