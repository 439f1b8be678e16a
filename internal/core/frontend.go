package core

import (
	"context"
	"net/netip"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
)

// frontendTimeout bounds one stub query's resolution when served over a
// real transport.
const frontendTimeout = 5 * time.Second

// HandleQuery implements transport.Handler, making the caching server
// directly servable over UDP to stub resolvers: the full CS role from the
// paper (Fig. 1), with recursion available. Queries with RD=0 are served
// from cached data only — a stub probing the cache must not trigger
// upstream fetches — and answered REFUSED when nothing cached applies.
func (cs *CachingServer) HandleQuery(q *dnswire.Message) *dnswire.Message {
	resp, _ := cs.handle(q, answerFully)
	return resp
}

// HandleInline implements transport.InlineHandler: HandleQuery for every
// query that needs no upstream work — a protocol refusal, an RD=0 probe,
// anything the live cache answers (a record, a cached CNAME chain, a
// negative entry) — and done=false, with nothing counted or traced, for
// the one case that may block: a miss, which HandleQuery then resolves.
// It touches no lock but the cache shard read locks and negMu.
func (cs *CachingServer) HandleInline(q *dnswire.Message, _ netip.AddrPort) (*dnswire.Message, bool) {
	return cs.handle(q, answerLive)
}

// HandleQueryCacheOnly answers q without any upstream work regardless of
// its RD flag: the guard layer's overload degraded mode, where the
// paper's cache and stale-serving machinery keeps answering while
// recursion capacity is saturated, and a mesh peer's fetch (mesh.Backend).
// A query nothing cached can answer gets SERVFAIL (transient — the client
// should retry), unlike an RD=0 miss's REFUSED (deliberate policy).
func (cs *CachingServer) HandleQueryCacheOnly(q *dnswire.Message) *dnswire.Message {
	resp, _ := cs.handle(q, answerCacheOnly)
	return resp
}

// answerMode is how far a query goes past the cache; the frontend asks
// every RD=0 query in answerCacheOnly, whatever its entry.
type answerMode int

const (
	answerFully     answerMode = iota // live cache, then upstream
	answerLive                        // live cache; a miss is declined
	answerCacheOnly                   // live, negative, then stale; a miss is SERVFAIL
)

// handle is the shared frontend: protocol validation, the
// recursive/cache-only routing decision, and reply assembly. Only
// answerLive ever declines (nil, false).
func (cs *CachingServer) handle(q *dnswire.Message, mode answerMode) (*dnswire.Message, bool) {
	resp := q.Reply()
	resp.Flags.RecursionAvailable = true
	// RFC 6891: a response to a query carrying an OPT record must carry
	// one too, advertising our receive capability.
	if _, ok := q.EDNS0PayloadSize(); ok {
		resp.SetEDNS0(dnswire.DefaultEDNS0PayloadSize)
	}
	if len(q.Question) != 1 || q.Opcode != dnswire.OpcodeQuery {
		resp.RCode = dnswire.RCodeFormErr
		return resp, true
	}
	question := q.Question[0]
	if question.Class != dnswire.ClassIN || question.Type.IsZoneTransfer() {
		resp.RCode = dnswire.RCodeRefused
		return resp, true
	}

	lookup := mode
	if !q.Flags.RecursionDesired {
		lookup = answerCacheOnly
	}
	res, done, err := cs.resolve(context.Background(), frontendTimeout, lookup, question.Name, question.Type)
	if !done {
		return nil, false
	}
	switch {
	case err != nil:
		resp.RCode = dnswire.RCodeServFail
	case res != nil:
		resp.RCode = res.RCode
		resp.Answer = append(resp.Answer, res.Answer...)
		resp.Authority = append(resp.Authority, res.Authority...)
	case mode == answerCacheOnly:
		// Degraded mode and nothing cached: shed with SERVFAIL so the
		// client retries once capacity returns.
		resp.RCode = dnswire.RCodeServFail
	default:
		// RD=0 and nothing cached: we will not recurse on the stub's
		// behalf.
		resp.RCode = dnswire.RCodeRefused
	}
	return resp, true
}

var _ transport.InlineHandler = (*CachingServer)(nil)
