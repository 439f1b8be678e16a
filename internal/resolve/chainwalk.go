package resolve

import (
	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
)

// The CNAME chain walker. Three pipeline paths chase CNAME chains — the
// cache lookups (lookupCached), the full resolution (ResolveChain), and
// the stale fallback (staleAnswer). The walker owns the hop bound, the
// answer accumulation, the FromCache conjunction, and the
// follow/terminate decision; each mode supplies only the per-name step.

// chainOutcome classifies one step of a chain walk.
type chainOutcome int

const (
	// chainDone ends the walk: the step produced a terminal answer (or
	// a non-NoError rcode).
	chainDone chainOutcome = iota
	// chainFollow offers the step's records for CNAME chasing: the walk
	// follows the chain's next target, or terminates when the records
	// already answer the question.
	chainFollow
	// chainMiss ends the walk without an answer for the current name;
	// the caller decides what a miss means in its mode.
	chainMiss
)

// chainStep is one mode-specific lookup result for the current name.
type chainStep struct {
	rrs []dnswire.RR
	// authority carries authority-section records for a terminal step
	// (the SOA of a negative answer); only meaningful with chainDone.
	authority []dnswire.RR
	rcode     dnswire.RCode
	outcome   chainOutcome
	fromCache bool
	// stale marks records served past their TTL (serve-stale).
	stale bool
	// entry is the live cache entry an exact-match step answered from,
	// when it is outside the prefetch window.
	entry *cache.Entry
	err   error
}

// chainResult is the walk's accumulated outcome.
type chainResult struct {
	answer    []dnswire.RR
	authority []dnswire.RR
	rcode     dnswire.RCode
	fromCache bool
	// stale reports that at least one step served stale records.
	stale bool
	// miss reports the walk stopped on a chainMiss.
	miss bool
	// exhausted reports the chain exceeded maxHops without terminating.
	exhausted bool
	// entry is the first step's entry when that step ended the walk: the
	// answer is then exactly that one RRset.
	entry *cache.Entry
	err   error
}

// walkChain chases a CNAME chain from qname, calling step for each name
// up to maxHops+1 times. The step's records are appended to the answer
// before its outcome is applied, and FromCache holds only if every step
// was cache-served.
func walkChain(qname dnswire.Name, qtype dnswire.Type, maxHops int, step func(cur dnswire.Name) chainStep) chainResult {
	res := chainResult{fromCache: true}
	cur := qname
	for hop := 0; hop <= maxHops; hop++ {
		st := step(cur)
		if st.err != nil {
			res.err = st.err
			return res
		}
		res.answer = append(res.answer, st.rrs...)
		res.fromCache = res.fromCache && st.fromCache
		res.stale = res.stale || st.stale
		switch st.outcome {
		case chainMiss:
			res.miss = true
			return res
		case chainDone:
			res.rcode = st.rcode
			res.authority = st.authority
			if hop == 0 {
				res.entry = st.entry
			}
			return res
		case chainFollow:
			if target, ok := cnameTarget(st.rrs, cur, qtype); ok {
				cur = target
				continue
			}
			res.rcode = st.rcode
			res.authority = st.authority
			return res
		}
	}
	res.exhausted = true
	return res
}

// cnameTarget returns the target to chase when rrs answer name only via a
// CNAME and the query was not for the CNAME itself.
func cnameTarget(rrs []dnswire.RR, name dnswire.Name, qtype dnswire.Type) (dnswire.Name, bool) {
	if qtype == dnswire.TypeCNAME {
		return "", false
	}
	var target dnswire.Name
	found := false
	for _, rr := range rrs {
		if rr.Type() == qtype {
			return "", false // real answer present
		}
		if rr.Name == name && rr.Type() == dnswire.TypeCNAME {
			target = rr.Data.(dnswire.CNAME).Target
			found = true
		}
	}
	return target, found
}
