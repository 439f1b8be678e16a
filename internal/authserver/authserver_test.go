package authserver

import (
	"net/netip"
	"testing"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/zone"
)

func rrA(name string, ttl uint32, ip string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.A{Addr: netip.MustParseAddr(ip)},
	}
}

func rrNS(name string, ttl uint32, host string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   ttl,
		Data:  dnswire.NS{Host: dnswire.MustName(host)},
	}
}

func rrSOA(name string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   3600,
		Data: dnswire.SOA{
			MName: dnswire.MustName("ns1." + name), RName: dnswire.MustName("admin." + name),
			Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		},
	}
}

func rrCNAME(name string, target string) dnswire.RR {
	return dnswire.RR{
		Name:  dnswire.MustName(name),
		Class: dnswire.ClassIN,
		TTL:   300,
		Data:  dnswire.CNAME{Target: dnswire.MustName(target)},
	}
}

// eduServer serves an edu. zone with a ucla.edu. delegation.
func eduServer(t *testing.T) *Server {
	t.Helper()
	z := zone.New(dnswire.MustName("edu"))
	for _, rr := range []dnswire.RR{
		rrSOA("edu."),
		rrNS("edu.", 172800, "ns1.edu."),
		rrNS("edu.", 172800, "ns2.edu."),
		rrA("ns1.edu.", 172800, "192.0.2.1"),
		rrA("ns2.edu.", 172800, "192.0.2.2"),
		rrA("www.edu.", 300, "192.0.2.80"),
		rrCNAME("alias.edu.", "www.edu."),
		rrNS("ucla.edu.", 86400, "ns1.ucla.edu."),
		rrA("ns1.ucla.edu.", 86400, "198.51.100.1"),
	} {
		z.MustAdd(rr)
	}
	return New(z)
}

func query(name string, qtype dnswire.Type) *dnswire.Message {
	return dnswire.NewQuery(42, dnswire.MustName(name), qtype)
}

func TestAnswerCarriesApexIRRs(t *testing.T) {
	s := eduServer(t)
	resp := s.HandleQuery(query("www.edu.", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeNoError || !resp.Flags.Authoritative {
		t.Fatalf("resp = %v", resp)
	}
	if len(resp.Answer) != 1 {
		t.Fatalf("answers = %v", resp.Answer)
	}
	// The paper's TTL-refresh scheme depends on the child's own answers
	// carrying the zone IRRs: apex NS in authority, glue in additional.
	if len(resp.Authority) != 2 {
		t.Errorf("authority = %v, want 2 apex NS", resp.Authority)
	}
	if len(resp.Additional) != 2 {
		t.Errorf("additional = %v, want 2 glue A", resp.Additional)
	}
}

func TestAttachApexNSDisabled(t *testing.T) {
	s := eduServer(t)
	s.AttachApexNS = false
	resp := s.HandleQuery(query("www.edu.", dnswire.TypeA))
	if len(resp.Authority) != 0 || len(resp.Additional) != 0 {
		t.Errorf("IRRs attached despite AttachApexNS=false: %v / %v",
			resp.Authority, resp.Additional)
	}
}

func TestReferral(t *testing.T) {
	s := eduServer(t)
	resp := s.HandleQuery(query("www.ucla.edu.", dnswire.TypeA))
	if resp.Flags.Authoritative {
		t.Error("referral marked authoritative")
	}
	if len(resp.Answer) != 0 {
		t.Errorf("referral with answers: %v", resp.Answer)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type() != dnswire.TypeNS {
		t.Fatalf("authority = %v", resp.Authority)
	}
	if resp.Authority[0].Name != "ucla.edu." {
		t.Errorf("referral NS owner = %v, want ucla.edu.", resp.Authority[0].Name)
	}
	if len(resp.Additional) != 1 || resp.Additional[0].Name != "ns1.ucla.edu." {
		t.Errorf("glue = %v", resp.Additional)
	}
}

func TestNXDomain(t *testing.T) {
	s := eduServer(t)
	resp := s.HandleQuery(query("nope.edu.", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v, want NXDOMAIN", resp.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type() != dnswire.TypeSOA {
		t.Errorf("authority = %v, want SOA", resp.Authority)
	}
}

func TestNoData(t *testing.T) {
	s := eduServer(t)
	resp := s.HandleQuery(query("www.edu.", dnswire.TypeAAAA))
	if resp.RCode != dnswire.RCodeNoError {
		t.Fatalf("rcode = %v, want NOERROR", resp.RCode)
	}
	if len(resp.Answer) != 0 {
		t.Errorf("answers = %v, want none", resp.Answer)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type() != dnswire.TypeSOA {
		t.Errorf("authority = %v, want SOA", resp.Authority)
	}
}

func TestCNAMEChaseInZone(t *testing.T) {
	s := eduServer(t)
	resp := s.HandleQuery(query("alias.edu.", dnswire.TypeA))
	if len(resp.Answer) != 2 {
		t.Fatalf("answers = %v, want CNAME+A", resp.Answer)
	}
	if resp.Answer[0].Type() != dnswire.TypeCNAME || resp.Answer[1].Type() != dnswire.TypeA {
		t.Errorf("answer types = %v, %v", resp.Answer[0].Type(), resp.Answer[1].Type())
	}
}

func TestCNAMELoopBounded(t *testing.T) {
	z := zone.New(dnswire.MustName("x."))
	z.MustAdd(rrNS("x.", 300, "ns.x."))
	z.MustAdd(rrA("ns.x.", 300, "192.0.2.1"))
	z.MustAdd(rrCNAME("a.x.", "b.x."))
	z.MustAdd(rrCNAME("b.x.", "a.x."))
	s := New(z)
	resp := s.HandleQuery(query("a.x.", dnswire.TypeA))
	if resp == nil {
		t.Fatal("nil response for CNAME loop")
	}
	if len(resp.Answer) > 2*maxCNAMEChase+2 {
		t.Errorf("unbounded CNAME chase: %d answers", len(resp.Answer))
	}
}

func TestRefusedOutsideAuthority(t *testing.T) {
	s := eduServer(t)
	resp := s.HandleQuery(query("example.com.", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.RCode)
	}
	// Inside its authority it still serves no zone transfers.
	resp = s.HandleQuery(query("edu.", dnswire.TypeAXFR))
	if resp.RCode != dnswire.RCodeRefused || len(resp.Answer) != 0 {
		t.Errorf("AXFR of a served zone: rcode = %v with %d answers, want REFUSED and none", resp.RCode, len(resp.Answer))
	}
}

func TestFormErrOnBadQuestion(t *testing.T) {
	s := eduServer(t)
	q := &dnswire.Message{ID: 1} // no question
	resp := s.HandleQuery(q)
	if resp.RCode != dnswire.RCodeFormErr {
		t.Errorf("rcode = %v, want FORMERR", resp.RCode)
	}
}

func TestMultiZoneServerPicksDeepest(t *testing.T) {
	parent := zone.New(dnswire.MustName("edu"))
	parent.MustAdd(rrSOA("edu."))
	parent.MustAdd(rrNS("edu.", 300, "ns.edu."))
	parent.MustAdd(rrA("ns.edu.", 300, "192.0.2.1"))
	parent.MustAdd(rrNS("ucla.edu.", 300, "ns.ucla.edu."))
	parent.MustAdd(rrA("ns.ucla.edu.", 300, "192.0.2.2"))

	child := zone.New(dnswire.MustName("ucla.edu"))
	child.MustAdd(rrSOA("ucla.edu."))
	child.MustAdd(rrNS("ucla.edu.", 300, "ns.ucla.edu."))
	child.MustAdd(rrA("ns.ucla.edu.", 300, "192.0.2.2"))
	child.MustAdd(rrA("www.ucla.edu.", 300, "192.0.2.3"))

	s := New(parent, child)
	resp := s.HandleQuery(query("www.ucla.edu.", dnswire.TypeA))
	if !resp.Flags.Authoritative || len(resp.Answer) != 1 {
		t.Fatalf("multi-zone server did not answer from child: %v", resp)
	}
}

func TestResponseIsPackable(t *testing.T) {
	s := eduServer(t)
	for _, q := range []string{"www.edu.", "www.ucla.edu.", "nope.edu.", "alias.edu."} {
		resp := s.HandleQuery(query(q, dnswire.TypeA))
		if _, err := resp.Pack(); err != nil {
			t.Errorf("response to %s not packable: %v", q, err)
		}
	}
}

func TestNoRotationByDefault(t *testing.T) {
	z := zone.New(dnswire.MustName("example."))
	z.MustAdd(rrNS("example.", 3600, "ns.example."))
	z.MustAdd(rrA("ns.example.", 3600, "192.0.2.1"))
	z.MustAdd(rrA("www.example.", 60, "192.0.2.10"))
	z.MustAdd(rrA("www.example.", 60, "192.0.2.11"))

	s := New(z)
	first := s.HandleQuery(query("www.example.", dnswire.TypeA)).Answer[0].Data.String()
	for i := 0; i < 5; i++ {
		got := s.HandleQuery(query("www.example.", dnswire.TypeA)).Answer[0].Data.String()
		if got != first {
			t.Fatalf("answer order changed between identical queries")
		}
	}
}
