// Package authserver implements an authoritative DNS server engine: it
// answers queries from one or more zones, emitting answers, referrals with
// glue, and negative responses, and — crucially for the paper's TTL-refresh
// scheme — it attaches the zone's own infrastructure resource records
// (apex NS plus glue A/AAAA) to every authoritative response, exactly as
// deployed name servers do.
package authserver

import (
	"sort"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
	"resilientdns/internal/zone"
)

// Server answers queries for a set of zones. Build it once; it is safe for
// concurrent readers afterwards.
type Server struct {
	zones []*zone.Zone
	// AttachApexNS controls whether authoritative answers carry the
	// zone's apex NS RRset in the authority section (and its glue in the
	// additional section). Real name servers do this; it is what lets a
	// caching server refresh a zone's IRRs from the child's own answers.
	// Defaults to true in New.
	AttachApexNS bool
}

// maxCNAMEChase bounds in-zone CNAME chain following.
const maxCNAMEChase = 8

// New returns a server answering for the given zones.
func New(zones ...*zone.Zone) *Server {
	s := &Server{AttachApexNS: true}
	s.zones = append(s.zones, zones...)
	// Deepest origin first, so the most specific zone answers.
	sort.Slice(s.zones, func(i, j int) bool {
		a, b := s.zones[i].Origin(), s.zones[j].Origin()
		if a.LabelCount() != b.LabelCount() {
			return a.LabelCount() > b.LabelCount()
		}
		return a < b
	})
	return s
}

// zoneFor returns the deepest served zone containing qname.
func (s *Server) zoneFor(qname dnswire.Name) *zone.Zone {
	for _, z := range s.zones {
		if qname.IsSubdomainOf(z.Origin()) {
			return z
		}
	}
	return nil
}

// HandleQuery implements transport.Handler.
func (s *Server) HandleQuery(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	if len(q.Question) != 1 || q.Opcode != dnswire.OpcodeQuery {
		resp.RCode = dnswire.RCodeFormErr
		return resp
	}
	question := q.Question[0]
	if (question.Class != dnswire.ClassIN && question.Class != dnswire.ClassANY) || question.Type.IsZoneTransfer() {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}

	z := s.zoneFor(question.Name)
	if z == nil {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}

	qname := question.Name
	for hop := 0; ; hop++ {
		res := z.Lookup(qname, question.Type)
		switch res.Type {
		case zone.Answer:
			resp.Flags.Authoritative = true
			resp.Answer = append(resp.Answer, res.Records...)
			s.attachSignatures(z, resp)
			s.attachIRRs(z, resp)
			return resp

		case zone.CNAMEIndirection:
			resp.Flags.Authoritative = true
			resp.Answer = append(resp.Answer, res.Records...)
			target := res.Records[0].Data.(dnswire.CNAME).Target
			if hop >= maxCNAMEChase {
				return resp
			}
			if tz := s.zoneFor(target); tz != nil {
				z = tz
				qname = target
				continue
			}
			// Target outside our authority; the resolver chases it.
			s.attachIRRs(z, resp)
			return resp

		case zone.Referral:
			resp.Authority = append(resp.Authority, res.Records...)
			resp.Additional = append(resp.Additional, res.Glue...)
			// A signed delegation carries the DS set and its signature in
			// the authority section (RFC 4035 §3.1.4.1) — infrastructure
			// records in the paper's sense, cached alongside NS and glue.
			if len(res.Records) > 0 {
				cut := res.Records[0].Name
				if ds := z.RRSet(cut, dnswire.TypeDS); len(ds) > 0 {
					resp.Authority = append(resp.Authority, ds...)
					resp.Authority = append(resp.Authority, sigsCovering(z, cut, dnswire.TypeDS)...)
				}
			}
			return resp

		case zone.NXDomain:
			resp.Flags.Authoritative = true
			resp.RCode = dnswire.RCodeNXDomain
			resp.Authority = append(resp.Authority, res.SOA...)
			return resp

		case zone.NoData:
			resp.Flags.Authoritative = true
			resp.Authority = append(resp.Authority, res.SOA...)
			return resp

		default: // zone.NotInZone cannot happen after zoneFor
			resp.RCode = dnswire.RCodeServFail
			return resp
		}
	}
}

// sigsCovering returns the RRSIGs at owner that cover the given type.
func sigsCovering(z *zone.Zone, owner dnswire.Name, covered dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range z.RRSet(owner, dnswire.TypeRRSIG) {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok && sig.TypeCovered == covered {
			out = append(out, rr)
		}
	}
	return out
}

// attachSignatures appends the RRSIGs covering each answer RRset, so that
// validating resolvers can check the response (RFC 4035 §3.1.1).
func (s *Server) attachSignatures(z *zone.Zone, resp *dnswire.Message) {
	type setKey struct {
		name dnswire.Name
		typ  dnswire.Type
	}
	seen := make(map[setKey]bool)
	answers := resp.Answer
	for _, rr := range answers {
		k := setKey{name: rr.Name, typ: rr.Type()}
		if seen[k] || rr.Type() == dnswire.TypeRRSIG {
			continue
		}
		seen[k] = true
		resp.Answer = append(resp.Answer, sigsCovering(z, rr.Name, rr.Type())...)
	}
}

// attachIRRs adds the zone's apex NS RRset to the authority section and
// any in-zone glue for those servers to the additional section, skipping
// records already present.
func (s *Server) attachIRRs(z *zone.Zone, resp *dnswire.Message) {
	if !s.AttachApexNS {
		return
	}
	seen := make(map[string]bool)
	for _, rr := range resp.Answer {
		seen[rrKey(rr)] = true
	}
	for _, rr := range z.ApexNS() {
		if seen[rrKey(rr)] {
			continue
		}
		seen[rrKey(rr)] = true
		resp.Authority = append(resp.Authority, rr)
		host := rr.Data.(dnswire.NS).Host
		for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			for _, g := range z.RRSet(host, t) {
				if !seen[rrKey(g)] {
					seen[rrKey(g)] = true
					resp.Additional = append(resp.Additional, g)
				}
			}
		}
	}
}

func rrKey(rr dnswire.RR) string {
	return string(rr.Name) + "/" + rr.Type().String() + "/" + rr.Data.String()
}

var _ transport.Handler = (*Server)(nil)
