package dnswire

import (
	"net/netip"
	"strings"
	"testing"
)

func TestTypeStrings(t *testing.T) {
	tests := []struct {
		t    Type
		want string
	}{
		{TypeA, "A"}, {TypeNS, "NS"}, {TypeCNAME, "CNAME"}, {TypeSOA, "SOA"},
		{TypePTR, "PTR"}, {TypeMX, "MX"}, {TypeTXT, "TXT"}, {TypeAAAA, "AAAA"},
		{TypeSRV, "SRV"}, {TypeOPT, "OPT"}, {TypeANY, "ANY"}, {TypeAXFR, "AXFR"}, {TypeIXFR, "IXFR"},
		{TypeDS, "DS"}, {TypeRRSIG, "RRSIG"}, {TypeDNSKEY, "DNSKEY"},
		{Type(9999), "TYPE9999"},
	}
	for _, tt := range tests {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("Type(%d).String() = %q, want %q", tt.t, got, tt.want)
		}
	}
}

func TestParseTypeRoundTrip(t *testing.T) {
	for typ, name := range typeNames {
		got, err := ParseType(name)
		if err != nil {
			t.Errorf("ParseType(%q): %v", name, err)
			continue
		}
		if got != typ {
			t.Errorf("ParseType(%q) = %v, want %v", name, got, typ)
		}
	}
	if _, err := ParseType("NOPE"); err == nil {
		t.Error("ParseType(NOPE) succeeded")
	}
}

func TestClassOpcodeRCodeStrings(t *testing.T) {
	if ClassIN.String() != "IN" || ClassCH.String() != "CH" || ClassANY.String() != "ANY" {
		t.Error("class mnemonics wrong")
	}
	if got := Class(99).String(); got != "CLASS99" {
		t.Errorf("Class(99) = %q", got)
	}
	if OpcodeQuery.String() != "QUERY" || OpcodeUpdate.String() != "UPDATE" ||
		OpcodeStatus.String() != "STATUS" || OpcodeNotify.String() != "NOTIFY" {
		t.Error("opcode mnemonics wrong")
	}
	if got := Opcode(7).String(); got != "OPCODE7" {
		t.Errorf("Opcode(7) = %q", got)
	}
	for rc, want := range map[RCode]string{
		RCodeNoError: "NOERROR", RCodeFormErr: "FORMERR", RCodeServFail: "SERVFAIL",
		RCodeNXDomain: "NXDOMAIN", RCodeNotImp: "NOTIMP", RCodeRefused: "REFUSED",
		RCode(14): "RCODE14",
	} {
		if got := rc.String(); got != want {
			t.Errorf("RCode %d = %q, want %q", rc, got, want)
		}
	}
}

func TestRDataStrings(t *testing.T) {
	tests := []struct {
		data RData
		want string
	}{
		{A{Addr: netip.MustParseAddr("192.0.2.1")}, "192.0.2.1"},
		{AAAA{Addr: netip.MustParseAddr("2001:db8::1")}, "2001:db8::1"},
		{NS{Host: "ns.example."}, "ns.example."},
		{CNAME{Target: "t.example."}, "t.example."},
		{PTR{Target: "p.example."}, "p.example."},
		{MX{Preference: 10, Host: "mx.example."}, "10 mx.example."},
		{TXT{Strings: []string{"a b", "c"}}, `"a b" "c"`},
		{SRV{Priority: 1, Weight: 2, Port: 53, Target: "s.example."}, "1 2 53 s.example."},
		{SOA{MName: "m.", RName: "r.", Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5},
			"m. r. 1 2 3 4 5"},
	}
	for _, tt := range tests {
		if got := tt.data.String(); got != tt.want {
			t.Errorf("%T.String() = %q, want %q", tt.data, got, tt.want)
		}
	}
}

func TestUnknownRData(t *testing.T) {
	u := Unknown{TypeCode: Type(4242), Raw: []byte{0xDE, 0xAD}}
	if u.Type() != Type(4242) {
		t.Errorf("Type = %v", u.Type())
	}
	if got := u.String(); !strings.Contains(got, "dead") {
		t.Errorf("String = %q", got)
	}
}

func TestOPTString(t *testing.T) {
	o := OPT{Options: []byte{1, 2, 3}}
	if got := o.String(); !strings.Contains(got, "3 bytes") {
		t.Errorf("OPT.String = %q", got)
	}
}

func TestMessageString(t *testing.T) {
	m := NewQuery(5, MustName("www.example.com."), TypeA)
	m.Flags.RecursionDesired = true
	r := m.Reply()
	r.Flags.Authoritative = true
	r.Flags.RecursionAvailable = true
	r.Flags.Truncated = true
	r.Answer = []RR{{Name: MustName("www.example.com."), Class: ClassIN, TTL: 60,
		Data: A{Addr: netip.MustParseAddr("192.0.2.1")}}}
	r.Authority = []RR{{Name: MustName("example.com."), Class: ClassIN, TTL: 60,
		Data: NS{Host: MustName("ns.example.com.")}}}
	r.Additional = []RR{{Name: MustName("ns.example.com."), Class: ClassIN, TTL: 60,
		Data: A{Addr: netip.MustParseAddr("192.0.2.53")}}}
	out := r.String()
	for _, want := range []string{"id=5", "qr", "aa", "tc", "rd", "ra",
		"ANSWER", "AUTHORITY", "ADDITIONAL", "www.example.com."} {
		if !strings.Contains(out, want) {
			t.Errorf("Message.String() missing %q:\n%s", want, out)
		}
	}
}

func TestRRString(t *testing.T) {
	rr := RR{Name: MustName("www.example."), Class: ClassIN, TTL: 300,
		Data: A{Addr: netip.MustParseAddr("192.0.2.1")}}
	want := "www.example.\t300\tIN\tA\t192.0.2.1"
	if got := rr.String(); got != want {
		t.Errorf("RR.String() = %q, want %q", got, want)
	}
	var nilData RR
	if nilData.Type() != TypeNone {
		t.Error("nil-data RR type != NONE")
	}
}

func TestQuestionString(t *testing.T) {
	q := Question{Name: MustName("x.example."), Type: TypeMX, Class: ClassIN}
	if got := q.String(); got != "x.example. IN MX" {
		t.Errorf("Question.String() = %q", got)
	}
}

func TestNameBadCharsRejected(t *testing.T) {
	for _, in := range []string{"a b.example", "bad\"quote.example", "semi;colon",
		"par(en", "\xc6.example", "tab\tlabel"} {
		if n, err := CanonicalName(in); err == nil {
			t.Errorf("CanonicalName(%q) = %q, want error", in, n)
		}
	}
}

func TestResultTypeCoverage(t *testing.T) {
	// Exercise the Name helpers' edge branches.
	if Root.Parent() != Root {
		t.Error("Root.Parent() != Root")
	}
	if got := Name("").Parent(); got != Root {
		t.Errorf("empty name parent = %q", got)
	}
	if Name("").Labels() != nil {
		t.Error("empty name has labels")
	}
}
