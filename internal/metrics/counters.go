package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
)

// A counter set is a struct whose every field is an exported uint64 — or
// an embedded counter set, which flattens into its parent the way
// encoding/json flattens it. The field is the whole declaration of a
// counter: its Go name (or `json` tag) is the key it is reported under,
// its doc comment is its documentation, and the hot path bumps it with
// Inc or Add on its address. The same struct type serves as the live set
// and as the plain-value snapshot read from it, so adding a counter is
// one line: /debug/stats, the shutdown dump and every Sum pick it up
// through the readers below.
//
// A live set comes from NewSet and is touched only through Inc, Add, Load
// and Snapshot; a snapshot is an ordinary value whose fields are read
// directly. The two share a type, so nothing but convention stops a plain
// (racing) field read of a live set: keep the live pointer unexported in
// the layer that bumps it, and let accessors return snapshots.

// NewSet allocates a zeroed live counter set of type T. It panics when T
// is not a well-formed set (see walk), so a malformed declaration fails
// at start-up instead of being silently skipped by a reader. Allocating
// the set on its own is also what makes it safe on 32-bit targets: the
// first word of an allocation is 64-bit aligned, and every cell sits at
// a multiple of eight bytes from it.
func NewSet[T any]() *T {
	set := new(T)
	walk(reflect.ValueOf(set).Elem(), func(string, *uint64) {})
	return set
}

// Inc adds one to a live counter: a single atomic add, the only thing a
// counter costs a query.
func Inc(c *uint64) { atomic.AddUint64(c, 1) }

// Add adds n to a live counter.
func Add(c *uint64, n uint64) { atomic.AddUint64(c, n) }

// Load reads one live counter, for a caller that polls a field or two
// often enough that a whole Snapshot would show up in its profile.
func Load(c *uint64) uint64 { return atomic.LoadUint64(c) }

// Snapshot reads every counter of a live set into a plain value.
func Snapshot[T any](live *T) (s T) {
	dst := cells(&s)
	for i, c := range cells(live) {
		*dst[i] = atomic.LoadUint64(c)
	}
	return s
}

// Sum adds two snapshots counter by counter.
func Sum[T any](a, b T) T {
	from := cells(&b)
	for i, c := range cells(&a) {
		*c += *from[i]
	}
	return a
}

// Pair is one counter of a set as a reader sees it.
type Pair struct {
	// Name is the counter's `json` tag, or its field name without one —
	// the key /debug/stats reports it under.
	Name  string
	Value uint64
}

// Pairs lists a snapshot's counters in declaration order.
func Pairs(snapshot any) []Pair {
	// Cells are reached by address, which a bare value does not have.
	set := reflect.New(reflect.TypeOf(snapshot))
	set.Elem().Set(reflect.ValueOf(snapshot))
	var out []Pair
	walk(set.Elem(), func(name string, c *uint64) { out = append(out, Pair{name, *c}) })
	return out
}

func cells(set any) []*uint64 {
	var out []*uint64
	walk(reflect.ValueOf(set).Elem(), func(_ string, c *uint64) { out = append(out, c) })
	return out
}

var uint64Type = reflect.TypeOf(uint64(0))

// walk is the one cold-path reader every function above is built on: it
// visits the cells of the addressable set v in declaration order,
// descending into embedded sets. Anything that is not a counter — an
// unexported field, a field of another type — is a panic.
func walk(v reflect.Value, visit func(name string, cell *uint64)) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch {
		case f.Anonymous && f.Type.Kind() == reflect.Struct:
			walk(v.Field(i), visit)
		case f.IsExported() && f.Type == uint64Type:
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			visit(name, v.Field(i).Addr().Interface().(*uint64))
		default:
			panic(fmt.Sprintf("metrics: %s.%s is not a counter (want an exported uint64 field)", t, f.Name))
		}
	}
}

// GuardCounters counts the client-facing guard layer's decisions: what
// the per-client rate limiter and the overload admission control did with
// incoming queries. It is declared here, not in internal/guard, because
// two layers that do not import each other bump it: transport's read loop
// (FormErr, and Shed as transport.UDPServer.Counters describes) and the
// guard.
type GuardCounters struct {
	// Allowed counts queries the rate limiter passed through.
	Allowed uint64 `json:"allowed"`
	// RateLimited counts queries a client's exhausted token bucket
	// dropped (silently, apart from slips).
	RateLimited uint64 `json:"rate_limited"`
	// Slips counts rate-limited queries answered with a minimal TC=1
	// reply instead of dropped (RRL slip), steering real clients behind
	// a hot address to TCP.
	Slips uint64 `json:"slips"`
	// Shed counts queries dropped because the server's inflight capacity
	// was saturated and no degraded mode could answer them.
	Shed uint64 `json:"shed"`
	// CacheOnly counts saturated-inflight queries served in the cache/
	// stale-only degraded mode instead of shed.
	CacheOnly uint64 `json:"cache_only"`
	// CacheOnlyMiss counts degraded-mode queries nothing cached could
	// answer (refused with SERVFAIL).
	CacheOnlyMiss uint64 `json:"cache_only_miss"`
	// FormErr counts malformed packets answered with FORMERR (header
	// parsed, rest did not).
	FormErr uint64 `json:"form_err"`
	// ClientsEvicted counts rate-limiter client slots recycled at the
	// memory bound (LRU eviction).
	ClientsEvicted uint64 `json:"clients_evicted"`
	// PeerExempt counts queries from handshake-confirmed mesh peers
	// passed through without charging a token bucket (a cooperating
	// fleet member must never be rate-limited or slipped a TC=1).
	PeerExempt uint64 `json:"peer_exempt"`
}
