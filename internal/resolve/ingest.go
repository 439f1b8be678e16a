package resolve

import (
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
)

// Ingest is the Validate/Ingest stage's cache half: it stores every
// usable record in resp, applying RFC 2181 credibility ranking and
// marking infrastructure RRsets (zone NS sets and the address records of
// the servers they name) so the refresh and renewal schemes know what
// they may extend. Exported so the renewal scheduler (internal/core) can
// ingest refetch responses through the same rules.
func (r *Resolver) Ingest(resp *dnswire.Message, fromZone dnswire.Name, qname dnswire.Name) {
	r.IngestFrom(resp, fromZone, qname, cache.OriginUpstream, r.cfg.Clock.Now())
}

// IngestFrom is Ingest with an explicit data origin, at now (the
// caller's clock reading): the mesh ingests peer-gossiped IRR sets
// through exactly the same credibility, bailiwick, and TTL-clamping
// rules, tagged cache.OriginPeer so the cache (and a post-restart
// recovery) can tell peer-learned data from upstream-confirmed data, and
// iterate ingests each step's response at its work's now.
func (r *Resolver) IngestFrom(resp *dnswire.Message, fromZone dnswire.Name, qname dnswire.Name, origin cache.Origin, now time.Time) {
	aa := resp.Flags.Authoritative

	// Collect the name-server host names mentioned by NS records anywhere
	// in the message; their address records are infrastructure.
	nsHosts := make(map[dnswire.Name]bool)
	for _, section := range [][]dnswire.RR{resp.Answer, resp.Authority} {
		for _, rr := range section {
			if ns, ok := rr.Data.(dnswire.NS); ok {
				nsHosts[ns.Host] = true
			}
		}
	}

	// Answer section: full credibility. Zone NS and DNSKEY sets are
	// infrastructure (§6 extends the IRR notion to the DNSSEC records).
	// The three sections' sets are grouped into one scratch in turn.
	var scratch [8][]dnswire.RR
	for _, set := range groupRRSets(scratch[:0], resp.Answer) {
		if set[0].Type() == dnswire.TypeRRSIG {
			// RRSIGs for different covered types share an (owner, type)
			// cache key; they are validated in-line from the response
			// instead of being cached.
			continue
		}
		t := set[0].Type()
		infra := t == dnswire.TypeNS || t == dnswire.TypeDNSKEY || t == dnswire.TypeDS
		r.putInfraAware(set, cache.CredAnswer, infra, origin, now)
	}

	// Authority section: the child's own copy of its IRRs when the answer
	// is authoritative, referral data otherwise.
	cred := cache.CredReferral
	if aa {
		cred = cache.CredAuthority
	}
	for _, set := range groupRRSets(scratch[:0], resp.Authority) {
		switch set[0].Type() {
		case dnswire.TypeNS:
			r.putInfraAware(set, cred, true, origin, now)
			if cred == cache.CredReferral && r.cfg.ParentRecheckInterval > 0 {
				// A referral is the parent vouching for the delegation.
				// Only the recheck reads the record: without it, keeping
				// one would grow the map by every delegation ever seen.
				r.parentMu.Lock()
				r.parentSeen[set[0].Name] = now
				r.parentMu.Unlock()
			}
		case dnswire.TypeDS:
			// Parent-side DS is infrastructure, like NS and glue.
			r.putInfraAware(set, cred, true, origin, now)
		case dnswire.TypeSOA, dnswire.TypeRRSIG:
			// SOA in negative answers is not cached as data; the
			// negative-cache layer handles the outcome itself. RRSIGs
			// are consumed in-line, not cached.
		default:
			r.cache.PutOrigin(set, cred, false, origin, now)
		}
	}

	// Additional section: glue. Only address records for name servers
	// mentioned in this message are trusted (bailiwick hygiene).
	for _, set := range groupRRSets(scratch[:0], resp.Additional) {
		t := set[0].Type()
		if t != dnswire.TypeA && t != dnswire.TypeAAAA {
			continue
		}
		if !nsHosts[set[0].Name] {
			continue
		}
		r.putInfraAware(set, cred, true, origin, now)
	}
}

// putInfraAware stores a set and, for infrastructure NS sets, fires the
// InfraCached hook so the renewal scheduler stays in sync.
func (r *Resolver) putInfraAware(set []dnswire.RR, cred cache.Credibility, infra bool, origin cache.Origin, now time.Time) {
	e := r.cache.PutOrigin(set, cred, infra, origin, now)
	if e != nil && infra && set[0].Type() == dnswire.TypeNS {
		if h := r.hooks.InfraCached; h != nil {
			h(set[0].Name, e.Expires())
		}
	}
}

// smallSection is the largest message section groupRRSets groups without
// a map. A larger one goes through a map, so a crafted response of
// thousands of sets costs linear time, not quadratic.
const smallSection = 16

// groupRRSets appends to dst the RRsets of a message section, split by
// (owner, type) in first-appearance order. The sets are read-only: a run
// of records sharing owner and type, which is how servers write a set, is
// a slice of rrs capped at its end, so a set is copied only when its
// records are scattered over the section.
func groupRRSets(dst [][]dnswire.RR, rrs []dnswire.RR) [][]dnswire.RR {
	type key struct {
		name dnswire.Name
		typ  dnswire.Type
	}
	first := len(dst)
	var index map[key]int
	if len(rrs) > smallSection {
		index = make(map[key]int)
	}
	for i := 0; i < len(rrs); {
		k := key{name: rrs[i].Name, typ: rrs[i].Type()}
		j := i + 1
		for j < len(rrs) && rrs[j].Name == k.name && rrs[j].Type() == k.typ {
			j++
		}
		run := rrs[i:j:j]
		i = j
		at, ok := -1, false
		if index != nil {
			at, ok = index[k]
		} else {
			for g := first; g < len(dst) && !ok; g++ {
				at, ok = g, dst[g][0].Name == k.name && dst[g][0].Type() == k.typ
			}
		}
		if !ok {
			if index != nil {
				index[k] = len(dst)
			}
			dst = append(dst, run)
			continue
		}
		dst[at] = append(dst[at], run...) // capped, so never written into rrs
	}
	return dst
}
