package core

import (
	"encoding/binary"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
)

// maxPackedLen is the largest reply kept on its entry: one no client's
// UDP limit ever truncates.
const maxPackedLen = dnswire.MaxUDPPayload

// patchReply copies r, a reply packed from a cache entry alone
// (cache.Entry.Reply), into buf with id and ttl, the TTL the entry has
// left — the one the cache path would serve (cache.Entry.RemainingTTL).
func patchReply(buf []byte, r *cache.Reply, id uint16, ttl uint32) []byte {
	out := append(buf[:0], r.Wire...)
	binary.BigEndian.PutUint16(out, id)
	for _, off := range r.TTLs {
		binary.BigEndian.PutUint32(out[off:], ttl)
	}
	return out
}
