package core

import (
	"context"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
)

// Mesh backend surface: these three methods let a CachingServer serve a
// cooperative resolver mesh (internal/mesh) without core importing the
// mesh package — the mesh's Backend interface is satisfied structurally.
//
//   - ZoneIRRMessage builds the IRR set an owner gossips after renewing;
//   - IngestPeerIRRs validates and ingests a peer's gossiped set;
//   - HandleQueryCacheOnly (frontend.go) serves a peer-fetch request from
//     cached data only — never recursing, so relayed fetches can never
//     cascade into further upstream or peer traffic.
//
// The other direction, what the server asks of the mesh, is Config.Fleet.

// peerFetch is the pipeline's PeerFetch hook when the server has a Fleet:
// the peer's message becomes a cache-sourced Result.
func (cs *CachingServer) peerFetch(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) *Result {
	msg := cs.cfg.Fleet.PeerFetch(ctx, qname, qtype)
	if msg == nil {
		return nil
	}
	return &Result{RCode: msg.RCode, Answer: msg.Answer, Authority: msg.Authority, FromCache: true}
}

// ZoneIRRMessage packages the zone's cached infrastructure records — the
// NS set plus the cached address records of the servers it names — as an
// authoritative response-shaped message with remaining TTLs, ready for
// gossip. Returns nil when the zone's NS set is not live infrastructure
// in this cache (nothing worth pushing).
func (cs *CachingServer) ZoneIRRMessage(zone dnswire.Name) *dnswire.Message {
	now := cs.cfg.Clock.Now()
	e := cs.cache.GetAt(zone, dnswire.TypeNS, now)
	if e == nil || !e.Infra() {
		return nil
	}
	msg := &dnswire.Message{
		Question: []dnswire.Question{{Name: zone, Type: dnswire.TypeNS, Class: dnswire.ClassIN}},
		Answer:   e.RRsWithRemainingTTL(now),
	}
	msg.Flags.Response = true
	msg.Flags.Authoritative = true
	for _, rr := range e.RRs {
		host := rr.Data.(dnswire.NS).Host
		for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			if ge := cs.cache.GetAt(host, t, now); ge != nil {
				msg.Additional = append(msg.Additional, ge.RRsWithRemainingTTL(now)...)
			}
		}
	}
	return msg
}

// IngestPeerIRRs validates a peer-gossiped IRR message and ingests it
// through the normal validated ingest path (credibility ranking,
// bailiwick-style nsHost gating on the glue, TTL clamping), tagged
// cache.OriginPeer. Like a renewal, a valid push then explicitly extends
// the zone's IRRs so the fleet's caches stay warm deterministically.
// Reports whether the message was accepted.
func (cs *CachingServer) IngestPeerIRRs(zone dnswire.Name, msg *dnswire.Message) bool {
	if msg == nil || len(msg.Answer) == 0 || len(msg.Authority) != 0 {
		return false
	}
	// The answer section must be exactly the zone's NS set: a peer push
	// may only refresh infrastructure records for the zone it names,
	// never inject arbitrary answer-credibility data.
	for _, rr := range msg.Answer {
		if rr.Name != zone || rr.Type() != dnswire.TypeNS {
			return false
		}
	}
	cs.resolver.IngestFrom(msg, zone, zone, cache.OriginPeer, cs.cfg.Clock.Now())
	cs.extendIRRs(zone, msg.Answer)
	return true
}
