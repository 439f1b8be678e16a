package resolve

import (
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
)

// negEntry caches a negative resolution outcome.
type negEntry struct {
	rcode dnswire.RCode
	// soa is the negative answer's SOA RRset (RFC 2308); replies served
	// from the negative cache carry it in their authority section so
	// downstream stubs can negative-cache the outcome themselves.
	soa     []dnswire.RR
	expires time.Time
}

// negativeStore remembers a negative outcome when negative caching is on.
// soa may be nil (the upstream answer carried no SOA).
func (r *Resolver) negativeStore(qname dnswire.Name, qtype dnswire.Type, rcode dnswire.RCode, soa []dnswire.RR) {
	if r.cfg.NegativeTTL <= 0 {
		return
	}
	r.negMu.Lock()
	defer r.negMu.Unlock()
	if r.negative == nil {
		r.negative = make(map[cache.Key]negEntry)
	}
	r.negative[cache.Key{Name: qname, Type: qtype}] = negEntry{
		rcode:   rcode,
		soa:     soa,
		expires: r.cfg.Clock.Now().Add(r.cfg.NegativeTTL),
	}
}

// negativeLookup returns a cached negative outcome, if one is live, along
// with its SOA. The SOA's TTL is clamped to the entry's remaining
// lifetime so a downstream negative cache expires no later than ours.
func (r *Resolver) negativeLookup(qname dnswire.Name, qtype dnswire.Type, now time.Time) (dnswire.RCode, []dnswire.RR, bool) {
	if r.cfg.NegativeTTL <= 0 {
		return 0, nil, false
	}
	r.negMu.Lock()
	defer r.negMu.Unlock()
	if r.negative == nil {
		return 0, nil, false
	}
	key := cache.Key{Name: qname, Type: qtype}
	e, ok := r.negative[key]
	if !ok {
		return 0, nil, false
	}
	if !e.expires.After(now) {
		delete(r.negative, key)
		return 0, nil, false
	}
	var soa []dnswire.RR
	if len(e.soa) > 0 {
		remaining := remainingSeconds(e.expires, now)
		soa = make([]dnswire.RR, len(e.soa))
		for i, rr := range e.soa {
			if rr.TTL > remaining {
				rr.TTL = remaining
			}
			soa[i] = rr
		}
	}
	return e.rcode, soa, true
}

// negSweepBatch is how many negative-cache entries SweepExpired scans per
// hold of negMu.
const negSweepBatch = 1024

// SweepExpired drops every expired negative-cache entry. negativeLookup
// reclaims an expired key only when that same key is asked again, so
// without a periodic sweep a flood of never-repeated names (random-
// subdomain attacks) grows the table by one entry per query, for good.
//
// Every query's negativeLookup and negativeStore takes negMu, and under
// that same flood the table holds a sweep interval's worth of names, so
// the scan gives the lock up between batches instead of stalling the
// query path for its whole length. Entries stored or deleted in the gaps
// are fine: a map range tolerates both, and whatever it misses the next
// sweep gets.
func (r *Resolver) SweepExpired() {
	now := r.cfg.Clock.Now()
	r.negMu.Lock()
	defer r.negMu.Unlock()
	scanned := 0
	for key, e := range r.negative {
		if !e.expires.After(now) {
			delete(r.negative, key)
		}
		if scanned++; scanned%negSweepBatch == 0 {
			r.negMu.Unlock()
			r.negMu.Lock()
		}
	}
}

// remainingSeconds mirrors cache.Entry.RemainingTTL: seconds until
// expiry, at least 1 for a still-live entry.
func remainingSeconds(expires, now time.Time) uint32 {
	d := expires.Sub(now)
	if d <= 0 {
		return 0
	}
	secs := int64(d / time.Second)
	if secs == 0 {
		secs = 1
	}
	return uint32(secs)
}

// negativeSOA extracts the SOA RRset a negative response carries in its
// authority section, with the TTL clamped per RFC 2308 to
// min(TTL, SOA.Minimum) — the duration the outcome may be negative-cached
// — and additionally to the resolver's own NegativeTTL when set.
func (r *Resolver) negativeSOA(resp *dnswire.Message) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range resp.Authority {
		soa, ok := rr.Data.(dnswire.SOA)
		if !ok {
			continue
		}
		if rr.TTL > soa.Minimum {
			rr.TTL = soa.Minimum
		}
		if ttl := r.cfg.NegativeTTL; ttl > 0 {
			if clamp := uint32(ttl / time.Second); rr.TTL > clamp {
				rr.TTL = clamp
			}
		}
		out = append(out, rr)
	}
	return out
}
