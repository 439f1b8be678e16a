// Package cache implements the resolver-side RRset cache that is the heart
// of the paper's contribution. Beyond vanilla TTL-based expiry it supports:
//
//   - credibility ranking (RFC 2181): data learned from a child zone's own
//     answers replaces glue learned from parent referrals;
//   - TTL refresh: resetting a cached infrastructure RRset's TTL whenever a
//     fresh copy arrives from the zone's own authoritative servers;
//   - a maximum-TTL clamp (7 days, §6 "Deployment Issues");
//   - expiry tombstones used to measure the paper's Fig. 3 time gap
//     between an IRR's expiry and the next query needing it;
//   - occupancy accounting (cached zones and records, Fig. 12 and Table 2);
//   - negative answers (RFC 2308): NXDOMAIN and NODATA outcomes with the
//     SOA they arrived with, in the same shards and sweep as the RRsets.
//
// The cache is safe for concurrent use: entries are spread over a fixed
// number of shards by a seeded hash of their key, each guarded by its own
// RWMutex, so concurrent resolutions only contend when they touch the same
// shard. The same hash places an entry in its shard's table (see table).
// Entries are immutable once published — every update (TTL refresh,
// Extend, stale tombstoning) replaces the stored *Entry with a fresh one
// — so callers may keep returned pointers without further locking. The
// one thing added to a published entry is a reply packed from it alone
// (Entry.SetReply): it stays right for as long as the entry does, and
// dies with it.
//
// A cached record pays for its data, not its bookkeeping: an Entry is the
// set's slice header plus 24 bytes (a stamp — see stamp —, the replies'
// pointer, and one word of credibility, flags and original TTL), its key
// is derived from the set's first record, and its shard keeps a pointer
// to it and a tag byte.
//
// TTL renewal policies (LRU/LFU and their adaptive variants) are layered
// on top by package core, which owns the renewal scheduler. Crash-safe
// persistence is layered on by package persist, through the Config.OnChange
// mutation hook and the Range/Restore export–import pair.
package cache

import (
	"hash/maphash"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
)

// Credibility ranks how trustworthy a cached RRset is, following the
// RFC 2181 §5.4.1 ranking (higher replaces lower).
type Credibility uint8

// Credibility levels, lowest first.
const (
	// CredReferral: NS/glue from a parent zone's referral.
	CredReferral Credibility = 1
	// CredAuthority: records from the authority/additional sections of an
	// authoritative answer (the child zone's own copy of its IRRs).
	CredAuthority Credibility = 2
	// CredAnswer: records from the answer section of an authoritative answer.
	CredAnswer Credibility = 3
)

// Key identifies a cached RRset.
type Key struct {
	Name dnswire.Name
	Type dnswire.Type
}

// Entry is one cached RRset. Entries are immutable after publication;
// updates replace the stored entry with a new one. The rest is read
// through methods: Key, Expires, OrigTTL, Cred, Infra, Origin and Reply.
type Entry struct {
	// RRs is the set; every record shares one owner and type, the
	// entry's Key.
	RRs []dnswire.RR
	// expires is the stamp of when the entry leaves the cache.
	expires int64
	// replies holds the replies packed from the entry, nil until one is.
	replies atomic.Pointer[replies]
	// cred, flags and origTTL, the (possibly clamped) TTL the set arrived
	// with in whole seconds, share the last word.
	cred    Credibility
	flags   entryFlags
	origTTL uint32
}

// Reply is a response packed from an entry's set alone: Wire as packed,
// and TTLs the offsets in Wire of its answer records' TTL fields, to be
// rewritten with the entry's remaining TTL when it is sent again. It is
// immutable once stored.
type Reply struct {
	Wire []byte
	TTLs []int
}

// replies are an entry's packed replies by query variant: the RD bit (1)
// and an OPT record (2), the last byte of dnswire.QueryKey's key.
type replies [4]*Reply

// entryFlags are an Entry's flag bits.
type entryFlags uint8

const (
	// flagInfra marks infrastructure RRsets: a zone's NS set and the
	// address records of its name servers. Only these are eligible for
	// the paper's refresh and renewal treatment.
	flagInfra entryFlags = 1 << iota
	// flagPeer marks data learned from a fleet peer's gossip/fetch rather
	// than an authoritative upstream response. Peer-learned entries
	// persist and restore with the tag so a restarted node still knows
	// which records it never confirmed upstream itself.
	flagPeer
	// flagTombstoned marks that the expiry gap for this entry was already
	// observed, so repeated stale accesses do not re-record it.
	flagTombstoned
)

// newEntry returns an entry for rrs, which the caller hands over.
func newEntry(rrs []dnswire.RR, cred Credibility, infra bool, origin Origin, ttl time.Duration, expires int64) *Entry {
	e := &Entry{RRs: rrs, expires: expires, origTTL: uint32(ttl / time.Second), cred: cred}
	if infra {
		e.flags |= flagInfra
	}
	if origin == OriginPeer {
		e.flags |= flagPeer
	}
	return e
}

// reissue returns a new entry for e's data and flags that expires at
// expires. It starts with no replies: one packed from e carries e's TTLs.
func (e *Entry) reissue(expires int64) *Entry {
	return &Entry{RRs: e.RRs, expires: expires, cred: e.cred, flags: e.flags, origTTL: e.origTTL}
}

// Reply is the reply stored for variant v (dnswire.QueryKey's last byte),
// or nil.
func (e *Entry) Reply(v byte) *Reply {
	if rs := e.replies.Load(); rs != nil {
		return rs[v&3]
	}
	return nil
}

// SetReply stores r for variant v. A concurrent store for another variant
// may be lost; the next query of that variant stores its reply again.
func (e *Entry) SetReply(v byte, r *Reply) {
	var rs replies
	if old := e.replies.Load(); old != nil {
		rs = *old
	}
	rs[v&3] = r
	e.replies.Store(&rs)
}

// replyBytes is the length of the replies packed from e.
func (e *Entry) replyBytes() int {
	n := 0
	if rs := e.replies.Load(); rs != nil {
		for _, r := range rs {
			if r != nil {
				n += len(r.Wire)
			}
		}
	}
	return n
}

// Key is the entry's (name, type): that of its first record.
func (e *Entry) Key() Key { return Key{Name: e.RRs[0].Name, Type: e.RRs[0].Type()} }

// Expires is when the entry leaves the cache.
func (e *Entry) Expires() time.Time { return unstamp(e.expires) }

// OrigTTL is the (possibly clamped) TTL the set arrived with.
func (e *Entry) OrigTTL() time.Duration { return time.Duration(e.origTTL) * time.Second }

// Cred is the set's credibility.
func (e *Entry) Cred() Credibility { return e.cred }

// Infra reports an infrastructure RRset: a zone's NS set or an address
// set of one of its name servers.
func (e *Entry) Infra() bool { return e.flags&flagInfra != 0 }

// Origin is where the set was learned from.
func (e *Entry) Origin() Origin {
	if e.flags&flagPeer != 0 {
		return OriginPeer
	}
	return OriginUpstream
}

// base is the instant every stamp counts from. It is read once from the
// real clock, so it carries a monotonic reading: a stamp of a real-clock
// time is a monotonic interval, unmoved by wall-clock steps, and a stamp
// of a virtual-clock time (which has no monotonic reading) is its exact
// wall-clock distance from base, so the simulator's time stays exact.
var base = simclock.Real{}.Now()

// stamp is t as int64 nanoseconds since base: the cache's time
// representation, 8 bytes where a time.Time takes 24.
func stamp(t time.Time) int64 { return int64(t.Sub(base)) }

// unstamp is the time a stamp stands for.
func unstamp(s int64) time.Time { return base.Add(time.Duration(s)) }

// Origin labels where a cache entry's data was learned from.
type Origin uint8

const (
	// OriginUpstream is the default: data from an authoritative server,
	// validated by the fetch engine.
	OriginUpstream Origin = iota
	// OriginPeer marks data ingested from a cooperating mesh peer
	// (IRR gossip or a peer-fetch answer).
	OriginPeer
)

// GapFunc observes a tombstone hit: a lookup for key arrived gap after the
// previous entry (with the given original TTL) expired. Used for Fig. 3.
// It may be invoked concurrently from different shards (never twice for
// the same tombstone) and runs with a shard lock held, so it must not call
// back into the cache.
type GapFunc func(key Key, gap time.Duration, origTTL time.Duration)

// ChangeOp labels a cache mutation observed through Config.OnChange.
type ChangeOp uint8

// Change operations, in the order the persistence journal replays them.
const (
	// ChangePut: a new or replacing entry was installed.
	ChangePut ChangeOp = iota + 1
	// ChangeExtend: an existing entry's expiry was reset (TTL refresh or
	// renewal Extend); the data is unchanged.
	ChangeExtend
	// ChangeEvict: an entry was removed explicitly (Evict). Lazy TTL
	// expiry is NOT reported: it is derivable from the entry's own
	// Expires, so replaying a journal re-drops expired entries without
	// needing expiry records.
	ChangeEvict
)

// ChangeFunc observes committed cache mutations; the persistence journal
// hangs off this hook. e is the post-mutation entry (nil for ChangeEvict).
// Like GapFunc it runs with a shard lock held and may be invoked
// concurrently from different shards, so it must be fast and must not call
// back into the cache.
type ChangeFunc func(op ChangeOp, key Key, e *Entry)

// Config parameterises a Cache.
type Config struct {
	// Clock supplies time; defaults to the wall clock.
	Clock simclock.Clock
	// MaxTTL clamps all TTLs; caching servers do not accept arbitrarily
	// large TTL values (§6). Defaults to 7 days. Negative disables.
	MaxTTL time.Duration
	// RefreshInfraTTL enables the paper's TTL-refresh scheme: an arriving
	// copy of a cached infrastructure RRset resets its TTL even when the
	// credibility is not higher.
	RefreshInfraTTL bool
	// OnGap, when set, observes expiry-to-next-use gaps. Expiry
	// tombstones are kept only for it: a cache without a gap observer
	// remembers nothing about an entry once it is gone.
	OnGap GapFunc
	// OnChange, when set, observes committed mutations (Put/Extend/Evict)
	// for persistence journaling. Restore does not fire it: recovered
	// entries are already covered by the snapshot being replayed.
	OnChange ChangeFunc
	// KeepStale retains expired entries for this long so they can be
	// served as a last resort when authoritative servers are unreachable
	// — the Ballani & Francis HotNets'06 scheme the paper's related work
	// (§7) compares against, and the ancestor of RFC 8767 serve-stale.
	// Zero disables stale retention.
	KeepStale time.Duration
	// NegativeTTL keeps NXDOMAIN/NODATA outcomes for this long; zero
	// disables negative caching.
	NegativeTTL time.Duration
}

// DefaultMaxTTL is the clamp applied when Config.MaxTTL is zero.
const DefaultMaxTTL = 7 * 24 * time.Hour

// shardBits is the log2 of shardCount, the number of independently locked
// cache shards. 64 keeps per-shard contention negligible at any plausible
// core count while the fixed array stays small; the shard index is the
// key hash's low shardBits.
const (
	shardBits  = 6
	shardCount = 1 << shardBits
)

// Stats describes cache occupancy at a point in time.
type Stats struct {
	// Entries is the number of live RRset entries.
	Entries int
	// Records is the number of live resource records.
	Records int
	// Zones is the number of zones whose NS RRset is cached — the
	// paper's "number of cached zones".
	Zones int
	// Zones3hLeft … Zones24hLeft count the zones whose NS RRset has at
	// least 3, 6, 12 and 24 hours left: the delegations that would outlive
	// a root+TLD blackout of that length (Fig. 4's) starting now, were
	// none of them renewed.
	Zones3hLeft, Zones6hLeft, Zones12hLeft, Zones24hLeft int
	// InfraEntries is the number of live infrastructure RRset entries.
	InfraEntries int
	// StaleEntries counts retained expired entries (KeepStale only).
	StaleEntries int
	// NegativeEntries counts cached negative answers, expired ones the
	// next sweep drops included: the table a random-subdomain flood grows.
	NegativeEntries int
	// ApproxBytes estimates the wire-format size of the cached data,
	// grounding the paper's "tens of MBytes" memory claim (§5.2.2).
	ApproxBytes int
}

// Add returns the field-wise sum of s and o: the occupancy of two caches
// taken together. It lives next to the type so that a new field is added
// here too (TestStatsAddSumsEveryField fails otherwise).
func (s Stats) Add(o Stats) Stats {
	s.Entries += o.Entries
	s.Records += o.Records
	s.Zones += o.Zones
	s.Zones3hLeft += o.Zones3hLeft
	s.Zones6hLeft += o.Zones6hLeft
	s.Zones12hLeft += o.Zones12hLeft
	s.Zones24hLeft += o.Zones24hLeft
	s.InfraEntries += o.InfraEntries
	s.StaleEntries += o.StaleEntries
	s.NegativeEntries += o.NegativeEntries
	s.ApproxBytes += o.ApproxBytes
	return s
}

// Cache is an RRset cache, safe for concurrent use (see the package
// comment for the sharding scheme).
type Cache struct {
	cfg    Config
	seed   maphash.Seed
	shards [shardCount]shard
	// evictions counts Evict's removals.
	evictions atomic.Uint64
}

// shard is one independently locked slice of the key space.
type shard struct {
	mu      sync.RWMutex
	entries table
	// tombstones remember when an expired entry died, to measure gaps;
	// empty unless Config.OnGap is set.
	tombstones map[Key]tombstone
	// negatives holds negative answers; empty unless Config.NegativeTTL
	// is set.
	negatives map[Key]negative
}

// negative is one cached NXDOMAIN (rcode) or NODATA (NOERROR) outcome.
type negative struct {
	// soa is the negative answer's SOA RRset (RFC 2308); replies served
	// from the negative cache carry it in their authority section so
	// downstream stubs can negative-cache the outcome themselves.
	soa     []dnswire.RR
	expires int64 // stamp
	rcode   dnswire.RCode
}

type tombstone struct {
	expiredAt int64 // stamp
	origTTL   time.Duration
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.Clock == nil {
		cfg.Clock = simclock.Real{}
	}
	if cfg.MaxTTL == 0 {
		cfg.MaxTTL = DefaultMaxTTL
	}
	c := &Cache{cfg: cfg, seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].entries = newTable(c.seed)
		c.shards[i].tombstones = make(map[Key]tombstone)
		c.shards[i].negatives = make(map[Key]negative)
	}
	return c
}

// locate returns the key's hash (hashKey) and its shard.
func (c *Cache) locate(key Key) (uint64, *shard) {
	h := hashKey(c.seed, key.Name, key.Type)
	return h, &c.shards[h&(shardCount-1)]
}

// clampTTL applies the MaxTTL policy to a TTL, in the whole seconds an
// Entry keeps.
func (c *Cache) clampTTL(ttl time.Duration) time.Duration {
	if c.cfg.MaxTTL > 0 && ttl > c.cfg.MaxTTL {
		ttl = c.cfg.MaxTTL
	}
	return min(ttl, math.MaxUint32*time.Second).Truncate(time.Second)
}

// smallSet is the largest RRset rrsetEqual matches record by record.
const smallSet = 8

// rrsetEqual reports whether two RRsets carry the same data, ignoring TTL
// and order. A small set of A, AAAA or NS records, the IRRs every referral
// and answer re-delivers, is matched record by record with no allocation;
// any other set is compared by presentation form.
func rrsetEqual(a, b []dnswire.RR) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) <= smallSet {
		if equal, ok := smallSetEqual(a, b); ok {
			return equal
		}
	}
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i] = a[i].Data.String()
		bs[i] = b[i].Data.String()
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// smallSetEqual matches each record of a to a record of b not matched yet,
// for sets of at most smallSet records; ok is false when a record is not
// of a type rdataEqual compares.
func smallSetEqual(a, b []dnswire.RR) (equal, ok bool) {
	var used uint8
next:
	for _, x := range a {
		for j, y := range b {
			if used&(1<<j) != 0 {
				continue
			}
			eq, ok := rdataEqual(x.Data, y.Data)
			if !ok {
				return false, false
			}
			if eq {
				used |= 1 << j
				continue next
			}
		}
		return false, true
	}
	return true, true
}

// rdataEqual compares A, AAAA and NS rdata by value; ok is false when x
// is of any other type.
func rdataEqual(x, y dnswire.RData) (equal, ok bool) {
	switch x := x.(type) {
	case dnswire.A:
		y, same := y.(dnswire.A)
		return same && x == y, true
	case dnswire.AAAA:
		y, same := y.(dnswire.AAAA)
		return same && x == y, true
	case dnswire.NS:
		y, same := y.(dnswire.NS)
		return same && x == y, true
	}
	return false, false
}

// minTTL returns the smallest TTL in the set, as a duration.
func minTTL(rrs []dnswire.RR) time.Duration {
	min := rrs[0].TTL
	for _, rr := range rrs[1:] {
		if rr.TTL < min {
			min = rr.TTL
		}
	}
	return time.Duration(min) * time.Second
}

// Put inserts or updates the RRset for its (name, type). All records must
// share one owner and type. Returns the resulting entry.
//
// Replacement rules:
//   - an expired or absent entry is always replaced;
//   - a higher-credibility set replaces a lower one;
//   - an equal-or-higher credibility copy of an infrastructure set
//     refreshes the entry's TTL when RefreshInfraTTL is on;
//   - otherwise the arriving copy is ignored (vanilla DNS behaviour: the
//     cached TTL keeps counting down).
func (c *Cache) Put(rrs []dnswire.RR, cred Credibility, infra bool) *Entry {
	return c.PutOrigin(rrs, cred, infra, OriginUpstream)
}

// PutOrigin is Put with an explicit data origin. A TTL refresh keeps
// the existing entry's origin (only the timer changes, not the data);
// a replacement installs the new copy's origin.
func (c *Cache) PutOrigin(rrs []dnswire.RR, cred Credibility, infra bool, origin Origin) *Entry {
	if len(rrs) == 0 {
		return nil
	}
	now := stamp(c.cfg.Clock.Now())
	key := Key{Name: rrs[0].Name, Type: rrs[0].Type()}
	ttl := c.clampTTL(minTTL(rrs))
	h, sh := c.locate(key)

	sh.mu.Lock()
	i, e := sh.entries.find(h, key.Name, key.Type)
	if e != nil {
		if e.expires > now {
			same := rrsetEqual(e.RRs, rrs)
			switch {
			case cred > e.cred:
				// Higher credibility: replace outright.
			case !same && cred == e.cred:
				// Equal credibility, different data: the fresher copy
				// wins (RFC 2181 §5.4.1 replacement).
			case same && c.cfg.RefreshInfraTTL && e.Infra() && infra && cred >= e.cred:
				// TTL refresh: reset the clock on the existing entry.
				// Keep the cached (higher-credibility) data; only the
				// timer is reset, per §4 "TTL Refresh". Entries are
				// immutable, so the refresh installs a new one.
				ne := e.reissue(now + int64(e.OrigTTL()))
				sh.entries.set(i, h, ne)
				c.noteChangeLocked(ChangeExtend, key, ne)
				sh.mu.Unlock()
				return ne
			default:
				sh.mu.Unlock()
				return e // vanilla: ignore the new copy
			}
		} else {
			c.expireLocked(sh, e, now) // the new entry takes its slot
			c.noteTombstoneHitLocked(sh, key, now)
		}
	} else {
		c.noteTombstoneHitLocked(sh, key, now)
	}

	e = newEntry(append([]dnswire.RR(nil), rrs...), cred, infra, origin, ttl, now+int64(ttl))
	sh.entries.set(i, h, e)
	delete(sh.tombstones, key)
	c.noteChangeLocked(ChangePut, key, e)
	sh.mu.Unlock()
	return e
}

// noteChangeLocked reports a committed mutation to the OnChange hook. The
// mutated shard's lock must be held so journal order matches apply order
// per key.
func (c *Cache) noteChangeLocked(op ChangeOp, key Key, e *Entry) {
	if c.cfg.OnChange != nil {
		c.cfg.OnChange(op, key, e)
	}
}

// Evictions returns how many entries Evict has removed.
func (c *Cache) Evictions() uint64 { return c.evictions.Load() }

// KeepStale is how long expired entries are retained (Config.KeepStale).
func (c *Cache) KeepStale() time.Duration { return c.cfg.KeepStale }

// NegativeTTL is how long negative answers are kept (Config.NegativeTTL).
func (c *Cache) NegativeTTL() time.Duration { return c.cfg.NegativeTTL }

// Get returns the live entry for (name, type), or nil. An expired entry is
// retired (leaving a tombstone when a gap observer is set; retained for
// stale service under KeepStale) and reported as a miss.
func (c *Cache) Get(name dnswire.Name, t dnswire.Type) *Entry {
	key := Key{Name: name, Type: t}
	h, sh := c.locate(key)
	now := stamp(c.cfg.Clock.Now())

	sh.mu.RLock()
	_, e := sh.entries.find(h, name, t)
	sh.mu.RUnlock()
	live := e != nil && e.expires > now

	// Expired, or absent with a gap observer that may hold a tombstone
	// for the key: take the write lock to retire the entry and note the
	// tombstone, re-checking under the lock (a concurrent Put may have
	// revived the key). An absent key with no gap observer has nothing
	// to retire and no tombstone to find, and stays off the write lock.
	if !live && (e != nil || c.cfg.OnGap != nil) {
		sh.mu.Lock()
		var i int
		i, e = sh.entries.find(h, name, t)
		if live = e != nil && e.expires > now; !live {
			if e != nil {
				sh.entries.set(i, h, c.expireLocked(sh, e, now))
			}
			c.noteTombstoneHitLocked(sh, key, now)
		}
		sh.mu.Unlock()
	}
	if !live {
		return nil
	}
	return e
}

// Probe returns the live entry for the name whose presentation form is
// name and type t, or nil: the read loop's lookup by the bytes of
// dnswire.QueryKey's key, which allocates nothing. The key views name in
// place, so Probe only reads: it retires, tombstones and keeps nothing,
// and a caller that misses asks Get.
func (c *Cache) Probe(name []byte, t dnswire.Type) *Entry {
	key := Key{Name: dnswire.Name(unsafe.String(unsafe.SliceData(name), len(name))), Type: t}
	h, sh := c.locate(key)
	sh.mu.RLock()
	_, e := sh.entries.find(h, key.Name, t)
	sh.mu.RUnlock()
	if e == nil || e.expires <= stamp(c.cfg.Clock.Now()) {
		return nil
	}
	return e
}

// GetStale returns the expired-but-retained entry for (name, type) when
// stale retention is on and the entry died within the KeepStale window.
// Live entries are returned as well (callers prefer Get first).
func (c *Cache) GetStale(name dnswire.Name, t dnswire.Type) *Entry {
	if c.cfg.KeepStale <= 0 {
		return nil
	}
	h, sh := c.locate(Key{Name: name, Type: t})
	now := stamp(c.cfg.Clock.Now())

	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, e := sh.entries.find(h, name, t)
	if e == nil {
		return nil
	}
	if e.expires > now {
		return e
	}
	if now-e.expires > int64(c.cfg.KeepStale) {
		sh.entries.set(i, h, c.expireLocked(sh, e, now))
		return nil
	}
	return e
}

// Peek returns the entry without expiry processing; nil if absent.
func (c *Cache) Peek(name dnswire.Name, t dnswire.Type) *Entry {
	h, sh := c.locate(Key{Name: name, Type: t})
	sh.mu.RLock()
	_, e := sh.entries.find(h, name, t)
	sh.mu.RUnlock()
	return e
}

// Extend resets the entry's expiry to now + its original TTL, returning
// false if the entry is absent. Package core uses this when a renewal
// refetch succeeds.
func (c *Cache) Extend(name dnswire.Name, t dnswire.Type) bool {
	key := Key{Name: name, Type: t}
	h, sh := c.locate(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, e := sh.entries.find(h, name, t)
	if e == nil {
		return false
	}
	ne := e.reissue(stamp(c.cfg.Clock.Now()) + int64(e.OrigTTL()))
	sh.entries.set(i, h, ne)
	c.noteChangeLocked(ChangeExtend, key, ne)
	return true
}

// Evict removes the entry without leaving a tombstone (used when a zone's
// servers all stop responding and its stale IRRs must be discarded).
func (c *Cache) Evict(name dnswire.Name, t dnswire.Type) {
	key := Key{Name: name, Type: t}
	h, sh := c.locate(key)
	sh.mu.Lock()
	if i, e := sh.entries.find(h, name, t); e != nil {
		sh.entries.delete(i)
		c.noteChangeLocked(ChangeEvict, key, nil)
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
}

// PutNegative remembers that (name, t) does not exist (rcode NXDOMAIN) or
// has no data of that type (NOERROR), for NegativeTTL. An outcome without
// an SOA is not stored: RFC 2308 §5 says it SHOULD NOT be cached.
func (c *Cache) PutNegative(name dnswire.Name, t dnswire.Type, rcode dnswire.RCode, soa []dnswire.RR) {
	if c.cfg.NegativeTTL <= 0 || len(soa) == 0 {
		return
	}
	key := Key{Name: name, Type: t}
	_, sh := c.locate(key)
	expires := stamp(c.cfg.Clock.Now()) + int64(c.cfg.NegativeTTL)
	sh.mu.Lock()
	sh.negatives[key] = negative{soa: soa, expires: expires, rcode: rcode}
	sh.mu.Unlock()
}

// GetNegative returns the live negative outcome for (name, t) and its SOA,
// whose TTL is clamped to the outcome's remaining lifetime (RemainingTTL's
// rule) so a downstream negative cache expires no later than this one. An
// expired outcome is retired and reported absent. With negative caching
// off it returns at once, hashing and locking nothing.
func (c *Cache) GetNegative(name dnswire.Name, t dnswire.Type) (dnswire.RCode, []dnswire.RR, bool) {
	if c.cfg.NegativeTTL <= 0 {
		return 0, nil, false
	}
	key := Key{Name: name, Type: t}
	_, sh := c.locate(key)
	now := stamp(c.cfg.Clock.Now())

	sh.mu.RLock()
	n, ok := sh.negatives[key]
	sh.mu.RUnlock()
	if !ok {
		return 0, nil, false
	}
	if n.expires <= now {
		sh.mu.Lock()
		if n, ok := sh.negatives[key]; ok && n.expires <= now {
			delete(sh.negatives, key)
		}
		sh.mu.Unlock()
		return 0, nil, false
	}
	rem := remainingTTL(n.expires, now)
	soa := make([]dnswire.RR, len(n.soa))
	for i, rr := range n.soa {
		rr.TTL = min(rr.TTL, rem)
		soa[i] = rr
	}
	return n.rcode, soa, true
}

// expireLocked retires a dead entry and returns what stays in its slot:
// with a gap observer it leaves a tombstone (once; without one nothing
// would ever read it, and a tombstone lives until its own key is looked
// up again — forever, for a never-repeated name), and it returns nil, or,
// with KeepStale, the entry (marked tombstoned) to retain for stale
// service until the window passes. The shard lock must be held.
func (c *Cache) expireLocked(sh *shard, e *Entry, now int64) *Entry {
	if c.cfg.OnGap != nil && e.flags&flagTombstoned == 0 {
		sh.tombstones[e.Key()] = tombstone{expiredAt: e.expires, origTTL: e.OrigTTL()}
		e = e.reissue(e.expires)
		e.flags |= flagTombstoned
	}
	if c.cfg.KeepStale > 0 && now-e.expires <= int64(c.cfg.KeepStale) {
		return e // retained as stale
	}
	return nil
}

// noteTombstoneHitLocked reports the gap between an entry's expiry and
// this renewed interest in it, then clears the tombstone. The shard lock
// must be held.
func (c *Cache) noteTombstoneHitLocked(sh *shard, key Key, now int64) {
	ts, ok := sh.tombstones[key]
	if !ok {
		return // always, without a gap observer: the table stays empty
	}
	delete(sh.tombstones, key)
	if c.cfg.OnGap != nil && now > ts.expiredAt {
		c.cfg.OnGap(key, time.Duration(now-ts.expiredAt), ts.origTTL)
	}
}

// SweepExpired removes every entry and negative answer whose TTL has
// passed, leaving tombstones when a gap observer is set, and shrinks each
// shard's table to what is left. The cache expires lazily, on the next
// lookup of the same key, so a key never asked again (a random-subdomain
// flood's names) is reclaimed only here; call it before reading occupancy
// stats so that Fig. 12-style series reflect live entries only.
func (c *Cache) SweepExpired() {
	now := stamp(c.cfg.Clock.Now())
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries.visit(func(slot int, e *Entry) bool {
			if e.expires <= now {
				sh.entries.set(slot, 0, c.expireLocked(sh, e, now)) // a full slot needs no hash
			}
			return true
		})
		sh.entries.shrink()
		for key, n := range sh.negatives {
			if n.expires <= now {
				delete(sh.negatives, key)
			}
		}
		sh.mu.Unlock()
	}
}

// Stats reports occupancy. Call SweepExpired first for exact numbers.
// Live and stale entries are counted separately.
func (c *Cache) Stats() Stats {
	var s Stats
	now := stamp(c.cfg.Clock.Now())
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		s.NegativeEntries += len(sh.negatives)
		for key, n := range sh.negatives {
			s.ApproxBytes += len(key.Name) + wireBytes(n.soa)
		}
		sh.entries.visit(func(_ int, e *Entry) bool {
			if e.expires <= now {
				s.StaleEntries++
				return true
			}
			s.Entries++
			s.Records += len(e.RRs)
			if e.Infra() {
				s.InfraEntries++
			}
			if e.RRs[0].Type() == dnswire.TypeNS {
				s.Zones++
				switch left := time.Duration(e.expires - now); {
				case left >= 24*time.Hour:
					s.Zones24hLeft++
					fallthrough
				case left >= 12*time.Hour:
					s.Zones12hLeft++
					fallthrough
				case left >= 6*time.Hour:
					s.Zones6hLeft++
					fallthrough
				case left >= 3*time.Hour:
					s.Zones3hLeft++
				}
			}
			s.ApproxBytes += wireBytes(e.RRs) + e.replyBytes()
			return true
		})
		sh.mu.RUnlock()
	}
	return s
}

// wireBytes is the uncompressed wire size of rrs: per record its owner,
// the fixed header (type/class/TTL/rdlength) and its RDATA, counted
// without formatting the record.
func wireBytes(rrs []dnswire.RR) int {
	n := 0
	for _, rr := range rrs {
		n += len(rr.Name) + 10 + dnswire.RDataLen(rr.Data)
	}
	return n
}

// Len returns the number of cached entries without sweeping: live ones,
// stale ones retained under KeepStale, and expired ones no lookup or sweep
// has retired yet.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += sh.entries.n
		sh.mu.RUnlock()
	}
	return n
}

// InfraExpiries returns the (name, expiry) pairs of all live
// infrastructure NS entries, sorted by expiry. The renewal scheduler in
// package core uses this to rebuild its due-queue after configuration
// changes and in tests.
func (c *Cache) InfraExpiries() []ExpiryInfo {
	var out []ExpiryInfo
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		sh.entries.visit(func(_ int, e *Entry) bool {
			if e.Infra() && e.RRs[0].Type() == dnswire.TypeNS {
				out = append(out, ExpiryInfo{Zone: e.RRs[0].Name, Expires: e.Expires(), OrigTTL: e.OrigTTL()})
			}
			return true
		})
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Expires.Equal(out[j].Expires) {
			return out[i].Expires.Before(out[j].Expires)
		}
		return out[i].Zone < out[j].Zone
	})
	return out
}

// ExpiryInfo describes one cached zone IRR's expiry.
type ExpiryInfo struct {
	Zone    dnswire.Name
	Expires time.Time
	OrigTTL time.Duration
}

// Range calls fn for every cached entry — live and (under KeepStale)
// expired-but-retained alike — until fn returns false. The iteration order
// is unspecified. Entries are immutable, so fn may retain the pointers; it
// must not call back into the cache (each shard's read lock is held while
// its entries are visited). The persistence snapshot writer is the primary
// consumer.
func (c *Cache) Range(fn func(e *Entry) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		more := sh.entries.visit(func(_ int, e *Entry) bool { return fn(e) })
		sh.mu.RUnlock()
		if !more {
			return
		}
	}
}

// RestoreEntry is one recovered record offered to Restore.
type RestoreEntry struct {
	RRs     []dnswire.RR
	Cred    Credibility
	Infra   bool
	Origin  Origin
	OrigTTL time.Duration
	Expires time.Time
}

// Restore installs a recovered entry, re-applying this cache's own TTL
// policy: OrigTTL is re-clamped against MaxTTL and the remaining lifetime
// may not exceed MaxTTL from now (a restart must never resurrect records
// for longer than a fresh Put could cache them). Entries already expired
// are kept only when stale retention is on and they died within the
// KeepStale window; otherwise they are dropped. Restore overwrites any
// existing entry (journal replay applies records in mutation order) and
// does not fire OnChange or leave tombstones — recovered state is already
// covered by the snapshot being replayed, and expiry-gap measurement
// restarts cleanly after recovery. Reports whether the entry was kept.
func (c *Cache) Restore(re RestoreEntry) bool {
	if len(re.RRs) == 0 {
		return false
	}
	key := Key{Name: re.RRs[0].Name, Type: re.RRs[0].Type()}
	for _, rr := range re.RRs {
		if rr.Name != key.Name || rr.Type() != key.Type {
			return false // corrupt record: mixed owners or types
		}
	}
	ttl := c.clampTTL(re.OrigTTL)
	if ttl <= 0 {
		return false
	}
	now := stamp(c.cfg.Clock.Now())
	expires := stamp(re.Expires)
	if c.cfg.MaxTTL > 0 && expires > now+int64(c.cfg.MaxTTL) {
		expires = now + int64(c.cfg.MaxTTL)
	}
	if expires <= now {
		if c.cfg.KeepStale <= 0 || now-expires > int64(c.cfg.KeepStale) {
			return false // dead on arrival and not retainable as stale
		}
	}
	e := newEntry(append([]dnswire.RR(nil), re.RRs...), re.Cred, re.Infra, re.Origin, ttl, expires)
	h, sh := c.locate(key)
	sh.mu.Lock()
	i, _ := sh.entries.find(h, key.Name, key.Type)
	sh.entries.set(i, h, e)
	sh.mu.Unlock()
	return true
}

// RemainingTTL returns the seconds left for an entry at time now, for
// serving decremented TTLs to stub resolvers.
func (e *Entry) RemainingTTL(now time.Time) uint32 { return remainingTTL(e.expires, stamp(now)) }

// remainingTTL is the whole seconds from stamp now until stamp expires,
// at least 1 while expires is still ahead.
func remainingTTL(expires, now int64) uint32 {
	d := time.Duration(expires - now)
	if d <= 0 {
		return 0
	}
	secs := int64(d / time.Second)
	if secs == 0 {
		secs = 1
	}
	return uint32(secs)
}

// RRsWithRemainingTTL returns a copy of the RRset with TTLs decremented to
// the remaining lifetime.
func (e *Entry) RRsWithRemainingTTL(now time.Time) []dnswire.RR {
	rem := e.RemainingTTL(now)
	out := make([]dnswire.RR, len(e.RRs))
	for i, rr := range e.RRs {
		rr.TTL = rem
		out[i] = rr
	}
	return out
}
