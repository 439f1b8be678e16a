package resolve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/transport"
)

// cacheMode selects which cached data cacheStep may answer from.
type cacheMode int

const (
	// cacheLive answers from live records and the negative cache only.
	cacheLive cacheMode = iota
	// cacheLiveThenStale falls back, per link, to expired records that
	// serve-stale still retains.
	cacheLiveThenStale
	// cacheStaleOnly answers from retained records alone (live ones
	// included): the last resort once live resolution has failed.
	cacheStaleOnly
)

// cacheStep answers one CNAME hop for cur from the cache: the exact
// RRset, then a cached CNAME, then a negative entry, then — where mode
// allows — retained stale records. Every path that serves cached data
// takes this one step, so cache counters and gap tombstones move the
// same way whichever path a query takes. due reports an exact live hit
// inside the prefetch window; what that means is the caller's decision.
func (r *Resolver) cacheStep(cur dnswire.Name, qtype dnswire.Type, now time.Time, mode cacheMode) (st chainStep, due bool) {
	if mode != cacheStaleOnly {
		if e := r.cache.GetAt(cur, qtype, now); e != nil {
			st := chainStep{rrs: e.RRsWithRemainingTTL(now), outcome: chainDone, fromCache: true}
			due := r.prefetchDue(e, now)
			if !due {
				st.entry = e
			}
			return st, due
		}
		if qtype != dnswire.TypeCNAME {
			if e := r.cache.GetAt(cur, dnswire.TypeCNAME, now); e != nil {
				return chainStep{rrs: e.RRsWithRemainingTTL(now), outcome: chainFollow, fromCache: true}, false
			}
		}
		if rcode, soa, ok := r.cache.GetNegative(cur, qtype, now); ok {
			return chainStep{rcode: rcode, authority: soa, outcome: chainDone, fromCache: true}, false
		}
	}
	if mode != cacheLive && r.cache.KeepStale() > 0 {
		e := r.cache.GetStale(cur, qtype, now)
		if e == nil && qtype != dnswire.TypeCNAME {
			e = r.cache.GetStale(cur, dnswire.TypeCNAME, now)
		}
		if e != nil {
			metrics.Inc(&r.counters.StaleAnswers)
			rrs := make([]dnswire.RR, len(e.RRs))
			copy(rrs, e.RRs)
			for i := range rrs {
				rrs[i].TTL = StaleServeTTL
			}
			return chainStep{rrs: rrs, outcome: chainFollow, fromCache: true, stale: true}, false
		}
	}
	return chainStep{outcome: chainMiss}, false
}

// Lookup is LookupAt at the resolver's own clock: the form the benchmark
// meter's layer replay calls until it moves to the request seam (ROADMAP
// item 1(a)). The serving path calls LookupAt with the now it read.
func (r *Resolver) Lookup(tr *Trace, qname dnswire.Name, qtype dnswire.Type) (*Result, error) {
	return r.LookupAt(tr, qname, qtype, r.cfg.Clock.Now())
}

// LookupAt is the CacheLookup stage: it attempts to answer qname/qtype
// purely from data live at now — the lock-free hot path, which never
// enters the slow path's coalescing or upstream machinery. It returns
// (nil, nil) when upstream work is (or may be) needed.
func (r *Resolver) LookupAt(tr *Trace, qname dnswire.Name, qtype dnswire.Type, now time.Time) (*Result, error) {
	return r.lookupCached(tr, qname, qtype, cacheLive, now)
}

// LookupCacheOnly answers qname/qtype without any upstream work: live
// cache first, then the negative cache, then — when serve-stale is on —
// expired records per link. It returns (nil, nil) when nothing cached
// can answer; the caller decides what a miss means (REFUSED for an RD=0
// probe, SERVFAIL in overload degraded mode). Unlike Lookup, a hit in
// the prefetch window is always served (never deferred to the slow
// path): the whole point of this mode is to never drop a cache hit.
func (r *Resolver) LookupCacheOnly(tr *Trace, qname dnswire.Name, qtype dnswire.Type, now time.Time) (*Result, error) {
	tr.MarkCacheOnly()
	return r.lookupCached(tr, qname, qtype, cacheLiveThenStale, now)
}

// lookupCached walks qname's CNAME chain through cacheStep in mode, at now.
func (r *Resolver) lookupCached(tr *Trace, qname dnswire.Name, qtype dnswire.Type, mode cacheMode, now time.Time) (*Result, error) {
	sp := tr.StartStage(StageCacheLookup)
	defer sp.End()
	cr := walkChain(qname, qtype, maxCNAME, func(cur dnswire.Name) chainStep {
		st, due := r.cacheStep(cur, qtype, now, mode)
		if due && r.pf != nil {
			// Async mode: serve the hit now, refresh in background.
			r.pf.enqueue(cache.Key{Name: cur, Type: qtype})
		} else if due && mode == cacheLive {
			// Inline-prefetch mode: let the slow path issue the
			// prefetch before serving the hit.
			return chainStep{outcome: chainMiss}
		}
		return st
	})
	switch {
	case cr.err != nil:
		return nil, cr.err
	case cr.exhausted:
		// A fully cached CNAME chain longer than maxCNAME: fail exactly
		// as the slow path would.
		return nil, chainTooLong(qname)
	case cr.miss:
		return nil, nil // the slow path takes over, or the caller refuses
	}
	if cr.stale {
		tr.MarkStale()
	} else {
		tr.MarkCacheHit()
	}
	return &Result{RCode: cr.rcode, Answer: cr.answer, Authority: cr.authority, FromCache: true, Entry: cr.entry}, nil
}

// LookupPacked is the CacheLookup stage for a reply kept on e, the
// cache's entry for the question live at now (cache.Cache.Probe): it hits
// outside the prefetch window — where LookupAt would answer exactly what
// was packed — and misses inside it. The reply dies with e, so it is
// never stale.
func (r *Resolver) LookupPacked(tr *Trace, e *cache.Entry, now time.Time) bool {
	sp := tr.StartStage(StageCacheLookup)
	defer sp.End()
	if r.prefetchDue(e, now) {
		return false
	}
	tr.MarkCacheHit()
	return true
}

// prefetchDue reports whether a cache hit falls in the prefetch window
// (the last tenth of the entry's TTL).
func (r *Resolver) prefetchDue(e *cache.Entry, now time.Time) bool {
	return r.cfg.Prefetch && e.Expires().Sub(now) <= e.OrigTTL()/10
}

// ResolveChain is the ChainWalk stage: it resolves qname/qtype fully,
// chasing CNAMEs across zones, entering Iterate for every link the cache
// cannot answer. Every link of the chain and every nesting level draws
// from the query's one Work: the one ctx carries (a flight's), or else
// one begun here as a flight's is.
func (r *Resolver) ResolveChain(ctx context.Context, tr *Trace, qname dnswire.Name, qtype dnswire.Type) (*Result, error) {
	sp := tr.StartStage(StageChainWalk)
	defer sp.End()
	if workOf(ctx) == nil {
		w := new(Work)
		r.Begin(w, ctx, KindResolve)
		ctx = w
	}
	cr := walkChain(qname, qtype, maxCNAME, func(cur dnswire.Name) chainStep {
		res, err := r.resolveOne(ctx, tr, cur, qtype, 0)
		if err != nil {
			return chainStep{err: err}
		}
		out := chainFollow
		if res.RCode != dnswire.RCodeNoError {
			out = chainDone
		}
		return chainStep{rrs: res.Answer, authority: res.Authority, rcode: res.RCode, outcome: out, fromCache: res.FromCache}
	})
	switch {
	case cr.err != nil:
		return nil, cr.err
	case cr.exhausted:
		return nil, chainTooLong(qname)
	}
	return &Result{RCode: cr.rcode, Answer: cr.answer, Authority: cr.authority, FromCache: cr.fromCache}, nil
}

// resolveOne resolves a single (name, type) without CNAME chasing across
// calls: a cached or received CNAME is returned for the caller to chase.
// depth counts nested glue resolutions.
func (r *Resolver) resolveOne(ctx context.Context, tr *Trace, qname dnswire.Name, qtype dnswire.Type, depth int) (*Result, error) {
	if st, due := r.cacheStep(qname, qtype, workOf(ctx).now(r.cfg.Clock), cacheLive); st.outcome != chainMiss {
		if due && depth == 0 {
			r.prefetch(ctx, tr, qname, qtype)
		}
		return &Result{RCode: st.rcode, Answer: st.rrs, Authority: st.authority, FromCache: true}, nil
	}
	validate := r.validator != nil && depth == 0
	res, resp, err := r.iterate(ctx, tr, qname, qtype, depth, validate, false)
	dnswire.Release(resp)
	if err != nil && r.cache.KeepStale() > 0 {
		// StaleFallback stage. Retry using stale IRRs first: expired
		// NS/glue still point at child servers that may be alive even
		// though the upper hierarchy is not (the serve-stale baseline's
		// main power in this attack).
		sp := tr.StartStage(StageStaleFallback)
		res2, resp2, err2 := r.iterate(ctx, tr, qname, qtype, depth, validate, true)
		dnswire.Release(resp2)
		if err2 == nil {
			sp.End()
			return res2, nil
		}
		stale := r.staleAnswer(tr, qname, qtype, workOf(ctx).now(r.cfg.Clock))
		sp.End()
		if stale != nil {
			return stale, nil
		}
	}
	if err != nil && depth == 0 {
		// Mesh fallback, last before SERVFAIL: every live, quarantined,
		// and stale path is exhausted, so ask the zone owner peer's
		// cache (single hop, never recursive — the serving peer answers
		// strictly from its own cached/stale data).
		if fleet := r.cfg.Fleet; fleet != nil {
			psp := tr.StartStage(StagePeerFetch)
			metrics.Inc(&r.counters.PeerFetches)
			msg := fleet.PeerFetch(ctx, qname, qtype)
			psp.End()
			// A peer fetch is an exchange: the work's time moved.
			workOf(ctx).step(r.cfg.Clock.Now())
			if msg != nil {
				metrics.Inc(&r.counters.PeerFetchAnswered)
				tr.MarkPeerFetch()
				return &Result{RCode: msg.RCode, Answer: msg.Answer, Authority: msg.Authority, FromCache: true}, nil
			}
		}
	}
	return res, err
}

// prefetch refreshes a cache entry a client query hit in the last tenth
// of its TTL (unbound-style prefetch). Async mode hands the key to the
// background pool and returns immediately; inline mode refetches under
// the client query's own work before the caller returns the cached data,
// which stays valid even if the refetch fails.
func (r *Resolver) prefetch(ctx context.Context, tr *Trace, qname dnswire.Name, qtype dnswire.Type) {
	if r.pf != nil {
		r.pf.enqueue(cache.Key{Name: qname, Type: qtype})
		return
	}
	r.refresh(ctx, tr, qname, qtype)
}

// refresh is one prefetch, inline or background: a full iteration at
// depth 1 (no re-prefetch, no validation). A fresh fetch restarts the
// entry's lifetime; failures are harmless (the cached copy is still
// live). The explicit Extend covers the cache's conservative replacement
// rules for identical data.
func (r *Resolver) refresh(ctx context.Context, tr *Trace, qname dnswire.Name, qtype dnswire.Type) error {
	metrics.Inc(&r.counters.PrefetchQueries)
	_, resp, err := r.iterate(ctx, tr, qname, qtype, 1, false, false)
	dnswire.Release(resp)
	if err == nil {
		r.cache.Extend(qname, qtype)
	}
	return err
}

// staleAnswer serves an expired cached answer after live resolution
// failed, per the serve-stale baseline. A stale CNAME is not returned
// bare: the chain is chased through the stale cache, up to maxCNAME hops,
// so the client receives the terminal records whenever they are still
// held. When only a prefix of the chain is cached the partial chain is
// returned (ending in a CNAME) and ResolveChain chases the tail, trying
// live resolution first for each remaining hop.
func (r *Resolver) staleAnswer(tr *Trace, qname dnswire.Name, qtype dnswire.Type, now time.Time) *Result {
	cr := walkChain(qname, qtype, maxCNAME, func(cur dnswire.Name) chainStep {
		st, _ := r.cacheStep(cur, qtype, now, cacheStaleOnly)
		return st
	})
	// A miss mid-chain or an exhausted walk both yield the partial chain:
	// the caller's ResolveChain chases whatever tail remains.
	if len(cr.answer) == 0 {
		return nil
	}
	tr.MarkStale()
	return &Result{RCode: dnswire.RCodeNoError, Answer: cr.answer, FromCache: true}
}

// iterate is the Iterate stage: it walks the DNS hierarchy from the
// deepest zone with cached IRRs down to the zone authoritative for qname.
// Each step's response lives until the step is done with it: it is
// ingested (which copies what the cache keeps), the Result copies what it
// keeps, and a referral's or a lame server's response is released there.
// The last one is returned beside the Result for the caller to read, and
// the caller releases it (dnswire.Release).
func (r *Resolver) iterate(ctx context.Context, tr *Trace, qname dnswire.Name, qtype dnswire.Type, depth int, validate, stale bool) (*Result, *dnswire.Message, error) {
	sp := tr.StartStage(StageIterate)
	defer sp.End()
	var lastErr error
	prevZone := dnswire.Name("")
	var addrs [4]transport.Addr // a zone's usual few servers, off the heap
	// A walk round a referral loop fails as the loop closes rather than
	// spending its retry budget going round: asked holds the last zones it
	// asked, lame the last whose servers referred it up or sideways. A
	// referral up or sideways to a zone asked, or down into a lame one,
	// closes the loop.
	var asked, lame [8]dnswire.Name
	nAsked, nLame := 0, 0
	for step := 0; step < maxReferrals; step++ {
		now := workOf(ctx).now(r.cfg.Clock)
		if err := halted(ctx, now); err != nil {
			return nil, nil, fmt.Errorf("%w: %s %s: %v", ErrResolutionFailed, qname, qtype, err)
		}
		zname, servers := r.deepestKnownZone(addrs[:0], qname, qtype, stale, now)
		if zname == prevZone {
			// A referral that does not descend (e.g. the child's servers
			// have no resolvable addresses) would loop forever.
			return nil, nil, fmt.Errorf("%w: %s %s: no progress below zone %s",
				ErrResolutionFailed, qname, qtype, zname)
		}
		prevZone = zname
		resp, err := r.queryZone(ctx, tr, zname, servers, qname, qtype)
		if err != nil {
			lastErr = err
			if zname.IsRoot() {
				// Even the root hints failed: the query is lost (§3).
				return nil, nil, fmt.Errorf("%w: %s %s: %v", ErrResolutionFailed, qname, qtype, err)
			}
			// The zone's cached IRRs are stale or its servers are down;
			// discard them and climb to an ancestor (§4 "Long TTL": in
			// the worst case the parent zone must be queried to reset
			// the IRR).
			r.cache.Evict(zname, dnswire.TypeNS)
			continue
		}

		asked[nAsked%len(asked)] = zname
		nAsked++
		now = workOf(ctx).now(r.cfg.Clock)
		isp := tr.StartStage(StageValidateIngest)
		r.IngestFrom(resp, zname, qname, cache.OriginUpstream, now)
		isp.End()

		switch {
		case resp.RCode == dnswire.RCodeNXDomain:
			soa := r.negativeSOA(resp)
			r.cache.PutNegative(qname, qtype, dnswire.RCodeNXDomain, soa, now)
			return &Result{RCode: dnswire.RCodeNXDomain, Authority: soa}, resp, nil

		case resp.RCode != dnswire.RCodeNoError:
			// A lame or broken server, below.

		case answersQuestion(resp, qname, qtype):
			if validate {
				vsp := tr.StartStage(StageValidateIngest)
				verr := r.validateAnswer(ctx, tr, zname, resp, depth)
				vsp.End()
				if verr != nil {
					return nil, nil, fmt.Errorf("%w: %v", ErrResolutionFailed, verr)
				}
			}
			return &Result{RCode: dnswire.RCodeNoError, Answer: relevantAnswers(resp, qname, qtype)}, resp, nil

		case isReferral(resp, zname):
			metrics.Inc(&r.counters.Referrals)
			child := referralChild(resp, zname)
			dnswire.Release(resp)
			if slices.Contains(lame[:], child) {
				return nil, nil, fmt.Errorf("%w: %s %s: referral loop: %s referred down to %s, which referred away", ErrResolutionFailed, qname, qtype, zname, child)
			}
			r.resolveMissingGlue(ctx, tr, child, depth)
			continue // deepestKnownZone now finds the child's IRRs

		case resp.Flags.Authoritative || len(resp.Answer) > 0 || hasSOA(resp):
			// Records that do not answer the question, or none, said
			// authoritatively or with an SOA: NODATA.
			soa := r.negativeSOA(resp)
			r.cache.PutNegative(qname, qtype, dnswire.RCodeNoError, soa, now)
			return &Result{RCode: dnswire.RCodeNoError, Authority: soa}, resp, nil
		}
		// Lame or broken server: an error rcode, or an empty
		// non-authoritative NOERROR with no SOA that does not refer down
		// (a referral up or sideways). Treat the zone as unusable.
		lastErr = fmt.Errorf("resolve: lame %s from %s", resp.RCode, zname)
		if resp.RCode == dnswire.RCodeNoError {
			for _, rr := range resp.Authority {
				if rr.Type() == dnswire.TypeNS && slices.Contains(asked[:], rr.Name) {
					return nil, nil, fmt.Errorf("%w: %s %s: referral loop: %s referred back to %s", ErrResolutionFailed, qname, qtype, zname, rr.Name)
				}
			}
			lame[nLame%len(lame)] = zname
			nLame++
		}
		dnswire.Release(resp)
		if zname.IsRoot() {
			return nil, nil, fmt.Errorf("%w: %v", ErrResolutionFailed, lastErr)
		}
		r.cache.Evict(zname, dnswire.TypeNS)
	}
	if lastErr == nil {
		lastErr = errors.New("referral limit exceeded")
	}
	return nil, nil, fmt.Errorf("%w: %s %s: %v", ErrResolutionFailed, qname, qtype, lastErr)
}

// negativeSOA extracts the SOA RRset a negative response carries in its
// authority section, with the TTL clamped per RFC 2308 to
// min(TTL, SOA.Minimum) — the duration the outcome may be negative-cached
// — and additionally to the cache's own NegativeTTL when set.
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
		if ttl := r.cache.NegativeTTL(); ttl > 0 {
			if clamp := uint32(ttl / time.Second); rr.TTL > clamp {
				rr.TTL = clamp
			}
		}
		out = append(out, rr)
	}
	return out
}

// deepestKnownZone returns the deepest ancestor zone of qname whose IRRs
// (NS plus at least one server address) are cached at now, with its
// servers appended to dst, falling back to the root hints.
func (r *Resolver) deepestKnownZone(dst []transport.Addr, qname dnswire.Name, qtype dnswire.Type, stale bool, now time.Time) (dnswire.Name, []transport.Addr) {
	get := func(name dnswire.Name, t dnswire.Type) *cache.Entry {
		if e := r.cache.GetAt(name, t, now); e != nil {
			return e
		}
		if stale {
			return r.cache.GetStale(name, t, now)
		}
		return nil
	}
	for anc := qname; !anc.IsRoot(); anc = anc.Parent() {
		if qtype == dnswire.TypeDS && anc == qname {
			// The parent side is authoritative for the DS RRset at a
			// delegation; never ask the child about its own DS.
			continue
		}
		e := get(anc, dnswire.TypeNS)
		if e == nil {
			continue
		}
		if iv := r.cfg.ParentRecheckInterval; iv > 0 && !stale {
			if seen, ok := r.parentLastSeen(anc); !ok || now.Sub(seen) > iv {
				// The delegation is overdue for confirmation: pretend the
				// IRRs are unknown so resolution re-visits the parent.
				continue
			}
		}
		if addrs := r.nsAddrs(dst, e.RRs, get); len(addrs) > 0 {
			return anc, addrs
		}
	}
	return dnswire.Root, r.roots
}

// parentLastSeen returns when zone's delegation was last confirmed by its
// parent.
func (r *Resolver) parentLastSeen(zone dnswire.Name) (time.Time, bool) {
	r.parentMu.Lock()
	defer r.parentMu.Unlock()
	seen, ok := r.parentSeen[zone]
	return seen, ok
}

// queryZone sends (qname, qtype) to the zone's servers through the fetch
// engine. The ZoneQueried hook (renewal credit) fires only after a
// validated response arrives: a query that every server fails never
// earns the zone credit towards renewing IRRs that evidently cannot be
// refetched. No lock is held across the exchange round-trips.
func (r *Resolver) queryZone(ctx context.Context, tr *Trace, zname dnswire.Name, servers []transport.Addr, qname dnswire.Name, qtype dnswire.Type) (*dnswire.Message, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("%w: no addresses for zone %s", transport.ErrServerUnreachable, zname)
	}
	resp, err := r.engine.Fetch(ctx, tr, servers, qname, qtype)
	if err != nil {
		return nil, err
	}
	if h := r.hooks.ZoneQueried; h != nil {
		h(zname)
	}
	return resp, nil
}

// Refetch sends a NS query for zone to its own servers through the fetch
// engine, sharing its RTT estimates and quarantine state. Unlike
// resolution queries, refetches do not fire the ZoneQueried hook: only
// genuine demand keeps a zone alive, otherwise renewal would sustain
// itself forever. The renewal scheduler (internal/core) is the caller.
func (r *Resolver) Refetch(ctx context.Context, tr *Trace, zone dnswire.Name, addrs []transport.Addr) (*dnswire.Message, error) {
	if len(addrs) == 0 {
		return nil, transport.ErrServerUnreachable
	}
	return r.engine.Fetch(ctx, tr, addrs, zone, dnswire.TypeNS)
}

// ZoneAddrs collects the cached addresses of the NS hosts in set,
// without expiry processing (the renewal scheduler calls it about
// records on the point of expiring).
func (r *Resolver) ZoneAddrs(set []dnswire.RR) []transport.Addr {
	return r.nsAddrs(nil, set, r.cache.Peek)
}

// nsAddrs appends to dst the transport addresses of the NS hosts in set,
// found through lookup and mapped once per server (upstream.mapAddr). A
// host with no A record falls back to AAAA glue: renewal extends both
// families, so either may be the one still held.
func (r *Resolver) nsAddrs(dst []transport.Addr, set []dnswire.RR, lookup func(dnswire.Name, dnswire.Type) *cache.Entry) []transport.Addr {
	u := r.engine.upstream
	for _, rr := range set {
		ns, ok := rr.Data.(dnswire.NS)
		if !ok {
			continue
		}
		if ae := lookup(ns.Host, dnswire.TypeA); ae != nil {
			for _, arr := range ae.RRs {
				dst = append(dst, u.mapAddr(arr.Data.(dnswire.A).Addr, r.cfg.AddrMapper))
			}
			continue
		}
		if ae := lookup(ns.Host, dnswire.TypeAAAA); ae != nil {
			for _, arr := range ae.RRs {
				dst = append(dst, u.mapAddr(arr.Data.(dnswire.AAAA).Addr, r.cfg.AddrMapper))
			}
		}
	}
	return dst
}

// answersQuestion reports whether resp's answer section covers (qname,
// qtype), directly or through a CNAME.
func answersQuestion(resp *dnswire.Message, qname dnswire.Name, qtype dnswire.Type) bool {
	for _, rr := range resp.Answer {
		if rr.Name == qname && (rr.Type() == qtype || rr.Type() == dnswire.TypeCNAME) {
			return true
		}
	}
	return false
}

// hasSOA reports whether resp's authority section carries an SOA record.
func hasSOA(resp *dnswire.Message) bool {
	for _, rr := range resp.Authority {
		if rr.Type() == dnswire.TypeSOA {
			return true
		}
	}
	return false
}

// relevantAnswers extracts the answer-section records that belong to the
// question's CNAME chain.
func relevantAnswers(resp *dnswire.Message, qname dnswire.Name, qtype dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	cur := qname
	for hops := 0; hops <= len(resp.Answer); hops++ {
		matched := false
		for _, rr := range resp.Answer {
			if rr.Name != cur {
				continue
			}
			if rr.Type() == qtype {
				out = append(out, rr)
				matched = true
			}
		}
		if matched {
			return out
		}
		// Follow one CNAME link.
		advanced := false
		for _, rr := range resp.Answer {
			if rr.Name == cur && rr.Type() == dnswire.TypeCNAME {
				out = append(out, rr)
				cur = rr.Data.(dnswire.CNAME).Target
				advanced = true
				break
			}
		}
		if !advanced {
			return out
		}
	}
	return out
}

// referralChild returns the child zone a referral from zname points at.
func referralChild(resp *dnswire.Message, zname dnswire.Name) dnswire.Name {
	for _, rr := range resp.Authority {
		if rr.Type() == dnswire.TypeNS && rr.Name != zname && rr.Name.IsSubdomainOf(zname) {
			return rr.Name
		}
	}
	return ""
}

// resolveMissingGlue resolves address records for the child zone's name
// servers when the referral carried no usable glue (out-of-bailiwick
// servers). Failures are tolerated: iterate detects lack of progress.
func (r *Resolver) resolveMissingGlue(ctx context.Context, tr *Trace, child dnswire.Name, depth int) {
	if child == "" || depth >= maxGlueDepth {
		return
	}
	e := r.cache.Peek(child, dnswire.TypeNS)
	if e == nil {
		return
	}
	// Any live cached address, of either family, already makes the zone
	// usable — the test deepestKnownZone applies when it routes to it.
	// GetAt (not Peek) so that an expired glue record does not masquerade
	// as usable.
	now := workOf(ctx).now(r.cfg.Clock)
	if len(r.nsAddrs(nil, e.RRs, func(n dnswire.Name, t dnswire.Type) *cache.Entry { return r.cache.GetAt(n, t, now) })) > 0 {
		return
	}
	for _, rr := range e.RRs {
		host := rr.Data.(dnswire.NS).Host
		if host.IsSubdomainOf(child) {
			// In-bailiwick without glue: unresolvable without the child
			// zone itself; skip.
			continue
		}
		// The aggregate budget bounds fanout across sibling NS names,
		// not just nesting: a delegation naming dozens of unresolvable
		// out-of-bailiwick servers (the NXNSAttack shape) stops
		// multiplying upstream traffic once the query's budget is gone.
		if !workOf(ctx).takeGlue() {
			metrics.Inc(&r.counters.GlueBudgetExhausted)
			return
		}
		metrics.Inc(&r.counters.GlueFetches)
		if _, err := r.resolveOne(ctx, tr, host, dnswire.TypeA, depth+1); err == nil {
			return
		}
	}
}

// isReferral reports whether resp is a downward referral from zname.
func isReferral(resp *dnswire.Message, zname dnswire.Name) bool {
	return len(resp.Answer) == 0 && !resp.Flags.Authoritative && referralChild(resp, zname) != ""
}
