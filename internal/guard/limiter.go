package guard

import (
	"hash/fnv"
	"net/netip"
	"sync"
	"time"

	"resilientdns/internal/metrics"
)

// The per-client token-bucket rate limiter. Client state lives in a
// sparse map sharded by address hash — lock-striped like the cache, so a
// flood from many (possibly spoofed) addresses contends on independent
// locks — and each shard keeps an intrusive LRU list bounding its slot
// count: a spoofed-source flood can churn the table but never grow it.

// shardCount is the number of independently locked limiter shards. A
// power of two so the shard index is a mask of the address hash.
const shardCount = 64

// defaultMaxClients bounds tracked client slots across all shards.
const defaultMaxClients = 65536

// decision classifies one query's fate at the rate limiter.
type decision int

const (
	decisionAllow decision = iota
	decisionDrop
	decisionSlip
)

// client is one address's token bucket and LRU linkage. Guarded by its
// shard's mutex.
type client struct {
	addr   netip.Addr
	tokens float64
	last   time.Time
	// limited counts consecutive rate-limited queries, driving the slip
	// cadence (every Nth limited query slips).
	limited uint64

	prev, next *client
}

// limShard is one lock-striped slice of the client table with its own
// LRU list (lru.next = most recently seen, lru.prev = eviction victim;
// the lru field itself is the list's sentinel).
type limShard struct {
	mu      sync.Mutex
	clients map[netip.Addr]*client
	lru     client
}

// limiter is the sharded token-bucket table.
type limiter struct {
	rps      float64
	burst    float64
	slip     int
	perShard int
	counters *metrics.GuardCounters
	shards   [shardCount]limShard
}

func newLimiter(rps float64, slip, maxClients int, counters *metrics.GuardCounters) *limiter {
	burst := max(2*rps, 1)
	if maxClients <= 0 {
		maxClients = defaultMaxClients
	}
	perShard := maxClients / shardCount
	if perShard < 1 {
		perShard = 1
	}
	l := &limiter{rps: rps, burst: burst, slip: slip, perShard: perShard, counters: counters}
	for i := range l.shards {
		s := &l.shards[i]
		s.clients = make(map[netip.Addr]*client)
		s.lru.next = &s.lru
		s.lru.prev = &s.lru
	}
	return l
}

// admit spends one token from addr's bucket, deciding the query's fate.
func (l *limiter) admit(addr netip.Addr, now time.Time) decision {
	s := &l.shards[shardFor(addr)]
	s.mu.Lock()
	defer s.mu.Unlock()

	c := s.clients[addr]
	if c == nil {
		if len(s.clients) >= l.perShard {
			victim := s.lru.prev // least recently seen
			unlink(victim)
			delete(s.clients, victim.addr)
			metrics.Inc(&l.counters.ClientsEvicted)
		}
		c = &client{addr: addr, tokens: l.burst, last: now}
		s.clients[addr] = c
	} else {
		unlink(c)
		// Refill from elapsed time, capped at the burst depth.
		if dt := now.Sub(c.last).Seconds(); dt > 0 {
			c.tokens += dt * l.rps
			if c.tokens > l.burst {
				c.tokens = l.burst
			}
		}
		c.last = now
	}
	pushFront(&s.lru, c)

	if c.tokens >= 1 {
		c.tokens--
		c.limited = 0
		return decisionAllow
	}
	c.limited++
	if l.slip > 0 && c.limited%uint64(l.slip) == 0 {
		return decisionSlip
	}
	return decisionDrop
}

// clientCount reports the tracked slots across all shards (tests).
func (l *limiter) clientCount() int {
	n := 0
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		n += len(s.clients)
		s.mu.Unlock()
	}
	return n
}

func unlink(c *client) {
	c.prev.next = c.next
	c.next.prev = c.prev
	c.prev, c.next = nil, nil
}

func pushFront(sentinel, c *client) {
	c.next = sentinel.next
	c.prev = sentinel
	sentinel.next.prev = c
	sentinel.next = c
}

// shardFor maps an address to its shard by FNV-1a hash of the 16-byte
// form (v4 addresses were unmapped by HandleInline, so the mapping is
// stable per client).
func shardFor(addr netip.Addr) int {
	h := fnv.New32a()
	b := addr.As16()
	h.Write(b[:])
	return int(h.Sum32() & (shardCount - 1))
}
