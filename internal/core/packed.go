package core

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sync"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
)

// The packed-reply memo: the bytes handle packed for a plain query
// (dnswire.QueryKey), kept with the cache entry their answer came from,
// so the next identical query is answered by copying them and patching
// the ID and the TTLs — before it is ever unpacked. A memoised reply is
// right exactly while the cache's live entry for its (name, type) is that
// same entry: entries are immutable, and every Put, TTL refresh, Extend,
// Evict or expiry installs a new one or none (resolve.LookupPacked).

const (
	// packedCap bounds the replies the memo holds, each at most
	// maxPackedLen bytes: 32 MiB of replies at the very most.
	packedCap = 1 << 16
	// packedShards is the number of independently locked memo shards;
	// each holds at most packedCap/packedShards replies.
	packedShards = 64
	// maxPackedLen is the largest reply memoised: one no client's UDP
	// limit ever truncates.
	maxPackedLen = dnswire.MaxUDPPayload
)

// packedReply is one memoised reply. It is immutable once stored.
type packedReply struct {
	wire []byte       // as packed, with the filling query's ID and TTLs
	ttls []int        // offsets of the answer records' TTL fields in wire
	src  *cache.Entry // the entry the answer is (resolve.Result.Entry)
}

// reply copies p into buf with id and the TTL src has left at now — the
// TTL the cache path would serve (cache.Entry.RemainingTTL).
func (p *packedReply) reply(buf []byte, id uint16, now time.Time) []byte {
	out := append(buf[:0], p.wire...)
	binary.BigEndian.PutUint16(out, id)
	ttl := p.src.RemainingTTL(now)
	for _, off := range p.ttls {
		binary.BigEndian.PutUint32(out[off:], ttl)
	}
	return out
}

// packedMemo maps query keys to memoised replies, sharded like the cache.
// A full shard evicts its oldest insertion to take a new key.
type packedMemo struct {
	seed   maphash.Seed
	shards [packedShards]packedShard
}

type packedShard struct {
	mu      sync.RWMutex
	replies map[string]*packedReply
	order   []string // keys in insertion order, a ring once full
	next    int      // the ring's oldest key
}

func newPackedMemo() *packedMemo { return &packedMemo{seed: maphash.MakeSeed()} }

func (m *packedMemo) shard(key []byte) *packedShard {
	return &m.shards[maphash.Bytes(m.seed, key)%packedShards]
}

// get returns the reply memoised for key, or nil.
func (m *packedMemo) get(key []byte) *packedReply {
	sh := m.shard(key)
	sh.mu.RLock()
	p := sh.replies[string(key)]
	sh.mu.RUnlock()
	return p
}

// put memoises wire, the reply handle packed from src alone, under key,
// replacing what key held.
func (m *packedMemo) put(key, wire []byte, src *cache.Entry) {
	ttls, err := dnswire.AnswerTTLs(wire, nil)
	if err != nil {
		return
	}
	p := &packedReply{wire: bytes.Clone(wire), ttls: ttls, src: src}
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.replies == nil {
		sh.replies = make(map[string]*packedReply)
	}
	k := string(key)
	if _, ok := sh.replies[k]; !ok {
		if len(sh.order) < packedCap/packedShards {
			sh.order = append(sh.order, k)
		} else {
			delete(sh.replies, sh.order[sh.next])
			sh.order[sh.next] = k
			sh.next = (sh.next + 1) % len(sh.order)
		}
	}
	sh.replies[k] = p
}
