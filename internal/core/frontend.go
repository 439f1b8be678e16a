package core

import (
	"bytes"
	"context"
	"encoding/binary"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/resolve"
	"resilientdns/internal/transport"
)

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
// A plain query (q.Key) whose live entry holds a reply for the query's
// variant is answered from those bytes, unpacked never; every other
// answer comes from handle, and one that is exactly one live RRset is
// packed into buf and kept on that entry for the next such query. It
// touches no lock but the cache shard read locks (or a cache shard's
// write lock, to retire an expired entry).
func (cs *CachingServer) HandleInline(q *transport.Query, buf []byte) ([]byte, *dnswire.Message, bool) {
	if e, r := cs.storedReply(q.Key); r != nil {
		key := e.Key()
		if _, done, _ := cs.resolve(context.Background(), 0, answerLive, key.Name, key.Type, e); done {
			return patchReply(buf, r, q.ID, e.RemainingTTL(cs.cfg.Clock.Now())), nil, true
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
	if ttls, err := dnswire.AnswerTTLs(wire, nil); err == nil {
		src.SetReply(q.Key[len(q.Key)-1], &cache.Reply{Wire: bytes.Clone(wire), TTLs: ttls})
	}
	return wire, nil, true
}

// storedReply is the live entry a plain query's key names and the reply
// kept on it for the key's variant, r nil when there is none. The key is
// the question name in presentation form, the type, the class and the
// variant byte (dnswire.QueryKey); only class IN is ever cached.
func (cs *CachingServer) storedReply(key []byte) (e *cache.Entry, r *cache.Reply) {
	n := len(key) - 5
	if n < 0 || dnswire.Class(binary.BigEndian.Uint16(key[n+2:])) != dnswire.ClassIN {
		return nil, nil
	}
	if e = cs.cache.Probe(key[:n], dnswire.Type(binary.BigEndian.Uint16(key[n:]))); e == nil {
		return nil, nil
	}
	return e, e.Reply(key[n+4])
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
// kept on it.
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
		res, done, err = cs.resolve(context.Background(), resolve.FrontendTimeout, lookup, q.Question[0].Name, q.Question[0].Type, nil)
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
