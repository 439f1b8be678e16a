package core

import (
	"context"
	"time"

	"resilientdns/internal/cache"
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
	resp, _, _ := cs.handle(q, answerFully)
	return resp
}

// HandleInline implements transport.InlineHandler: HandleQuery for every
// query that needs no upstream work — a protocol refusal, an RD=0 probe,
// anything the live cache answers (a record, a cached CNAME chain, a
// negative entry) — and done=false, with nothing counted or traced, for
// the one case that may block: a miss, which HandleQuery then resolves.
//
// A plain query whose reply is memoised and still right is answered from
// those bytes, unpacked never; every other answer comes from handle, and
// one that is exactly one live RRset is packed into buf and memoised for
// the next such query. It touches no lock but the cache and memo shard
// read locks, and a memo shard's write lock to fill it (or a cache
// shard's, to retire an expired entry).
func (cs *CachingServer) HandleInline(q *transport.Query, buf []byte) ([]byte, *dnswire.Message, bool) {
	if q.Key != nil {
		if p := cs.packed.get(q.Key); p != nil {
			key := p.src.Key()
			if _, done, _ := cs.resolve(context.Background(), 0, answerLive, key.Name, key.Type, p.src); done {
				return p.reply(buf, q.ID, cs.cfg.Clock.Now()), nil, true
			}
		}
	}
	m, err := q.Message()
	if err != nil {
		return nil, nil, true // unreachable: a keyed query always unpacks
	}
	resp, src, done := cs.handle(m, answerLive)
	if src == nil || q.Key == nil {
		return nil, resp, done
	}
	wire, err := resp.AppendPack(buf[:0])
	if err != nil || len(wire) > maxPackedLen {
		return nil, resp, true // the read loop applies the client's limit
	}
	cs.packed.put(q.Key, wire, src)
	return wire, nil, true
}

// HandleQueryCacheOnly answers q without any upstream work regardless of
// its RD flag: the guard layer's overload degraded mode, where the
// paper's cache and stale-serving machinery keeps answering while
// recursion capacity is saturated, and a mesh peer's fetch (mesh.Backend).
// A query nothing cached can answer gets SERVFAIL (transient — the client
// should retry), unlike an RD=0 miss's REFUSED (deliberate policy).
func (cs *CachingServer) HandleQueryCacheOnly(q *dnswire.Message) *dnswire.Message {
	resp, _, _ := cs.handle(q, answerCacheOnly)
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
// answerLive ever declines (nil, nil, false), and a declined query has
// no reply built for it. src is the cache entry the reply's answer is,
// when it is exactly that (resolve.Result.Entry): the reply may then be
// memoised.
func (cs *CachingServer) handle(q *dnswire.Message, mode answerMode) (resp *dnswire.Message, src *cache.Entry, done bool) {
	var res *Result
	var rcode dnswire.RCode
	switch {
	case len(q.Question) != 1 || q.Opcode != dnswire.OpcodeQuery:
		rcode = dnswire.RCodeFormErr
	case q.Question[0].Class != dnswire.ClassIN || q.Question[0].Type.IsZoneTransfer():
		rcode = dnswire.RCodeRefused
	default:
		lookup := mode
		if !q.Flags.RecursionDesired {
			lookup = answerCacheOnly
		}
		var err error
		res, done, err = cs.resolve(context.Background(), frontendTimeout, lookup, q.Question[0].Name, q.Question[0].Type, nil)
		switch {
		case !done:
			return nil, nil, false
		case err != nil:
			rcode = dnswire.RCodeServFail
		case res != nil:
			rcode = res.RCode
		case mode == answerCacheOnly:
			// Degraded mode and nothing cached: shed with SERVFAIL so the
			// client retries once capacity returns.
			rcode = dnswire.RCodeServFail
		default:
			// RD=0 and nothing cached: we will not recurse on the stub's
			// behalf.
			rcode = dnswire.RCodeRefused
		}
	}

	resp = q.Reply()
	resp.Flags.RecursionAvailable = true
	resp.RCode = rcode
	// RFC 6891: a response to a query carrying an OPT record must carry
	// one too, advertising our receive capability.
	if _, ok := q.EDNS0PayloadSize(); ok {
		resp.SetEDNS0(dnswire.DefaultEDNS0PayloadSize)
	}
	if res != nil {
		resp.Answer = append(resp.Answer, res.Answer...)
		resp.Authority = append(resp.Authority, res.Authority...)
		src = res.Entry
	}
	return resp, src, true
}

var _ transport.InlineHandler = (*CachingServer)(nil)
