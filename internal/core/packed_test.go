package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/guard"
	"resilientdns/internal/race"
	"resilientdns/internal/transport"
)

// upperName spells the question name of a packed query in upper case.
func upperName(wire []byte) []byte {
	out := bytes.Clone(wire)
	for i := 12; out[i] != 0; i++ {
		if c := out[i]; c >= 'a' && c <= 'z' {
			out[i] = c - 'a' + 'A'
		}
	}
	return out
}

// TestPackedReplyMatchesHandleQuery runs twin servers through the same
// cache events, one asked the way the read loop asks (sendWire: probe,
// inline entry) and one asked HandleQuery alone, and requires the
// bytes sent to be the same at every step, for each spelling of one
// question: RD=1, RD=0, EDNS0 1232 and 400, and upper case. A clock step
// is served from the kept reply with the TTL counted down; a TTL
// refresh, Extend, a replacing Put, Evict, expiry and the prefetch window
// each install another entry or none, so the next query falls through —
// and the reply is kept again once the cache holds the name again.
func TestPackedReplyMatchesHandleQuery(t *testing.T) {
	zone := dnswire.MustName("ucla.edu.")
	query := func(edit func(*dnswire.Message)) []byte {
		q := dnswire.NewQuery(0x2b2b, zone, dnswire.TypeNS)
		q.Flags.RecursionDesired = true
		if edit != nil {
			edit(q)
		}
		wire, err := q.Pack()
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		return wire
	}
	rd1 := query(nil)
	spellings := []struct {
		name string
		wire []byte
	}{
		{"RD=1", rd1},
		{"RD=0", query(func(q *dnswire.Message) { q.Flags.RecursionDesired = false })},
		{"EDNS0 1232", query(func(q *dnswire.Message) { q.SetEDNS0(1232) })},
		{"EDNS0 400", query(func(q *dnswire.Message) { q.SetEDNS0(400) })},
		{"upper case", upperName(rd1)},
	}
	// Each event runs on both twins; entry is twin a's live entry for the
	// zone's NS RRset, two records: an infrastructure set, which TTL
	// refresh applies to.
	events := []struct {
		name     string
		apply    func(f *fixture, entry *cache.Entry)
		fromMemo bool
	}{
		{"clock step", func(f *fixture, _ *cache.Entry) { f.clock.Advance(10 * time.Second) }, true},
		{"TTL refresh", func(f *fixture, e *cache.Entry) { f.cs.Cache().Put(e.RRs, e.Cred(), true) }, false},
		{"Extend", func(f *fixture, _ *cache.Entry) { f.cs.Cache().Extend(zone, dnswire.TypeNS) }, false},
		{"replacing Put", func(f *fixture, e *cache.Entry) {
			f.cs.Cache().Put([]dnswire.RR{rrNS("ucla.edu.", 3600, "ns3.ucla.edu.")}, e.Cred(), true)
		}, false},
		{"Evict", func(f *fixture, _ *cache.Entry) { f.cs.Cache().Evict(zone, dnswire.TypeNS) }, false},
		{"expiry", func(f *fixture, e *cache.Entry) { f.clock.AdvanceTo(e.Expires().Add(time.Second)) }, false},
		{"outside the prefetch window", func(f *fixture, e *cache.Entry) { f.clock.AdvanceTo(e.Expires().Add(-e.OrigTTL() / 9)) }, true},
		{"inside the prefetch window", func(f *fixture, e *cache.Entry) { f.clock.AdvanceTo(e.Expires().Add(-e.OrigTTL() / 11)) }, false},
	}
	for _, sp := range spellings {
		t.Run(sp.name, func(t *testing.T) {
			cfg := Config{RefreshTTL: true, Prefetch: true}
			a, b := newFixture(t, cfg), newFixture(t, cfg)
			warm := func() {
				for _, f := range []*fixture{a, b} {
					q, err := dnswire.Unpack(rd1)
					if err != nil {
						t.Fatalf("Unpack: %v", err)
					}
					f.cs.HandleQuery(q)
				}
			}
			// ask sends the query, with an ID of its own, to both twins,
			// compares the bytes and reports whether a's went out from a
			// kept reply.
			asked := uint16(0)
			ask := func(when string) bool {
				t.Helper()
				asked++
				binary.BigEndian.PutUint16(sp.wire, asked)
				before := a.cs.Stats().PackedAnswers
				got, _ := sendWire(t, a.cs, sp.wire)
				q, err := dnswire.Unpack(sp.wire)
				if err != nil {
					t.Fatalf("Unpack: %v", err)
				}
				want, err := b.cs.HandleQuery(q).Pack()
				if err != nil {
					t.Fatalf("Pack: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: the read loop sends\n%x\nHandleQuery packs\n%x", when, got, want)
				}
				return a.cs.Stats().PackedAnswers > before
			}
			// refill warms both twins and asks until a reply goes out from
			// the entry: the next ask after one is kept.
			refill := func(when string) {
				t.Helper()
				warm()
				if !ask(when+", refill") && !ask(when+", refilled") {
					t.Errorf("%s: the reply was not memoised again", when)
				}
			}
			warm()
			refill("primed")
			for _, ev := range events {
				entry := a.cs.Cache().Peek(zone, dnswire.TypeNS)
				ev.apply(a, entry)
				ev.apply(b, entry)
				if fromMemo := ask(ev.name); fromMemo != ev.fromMemo {
					t.Errorf("%s: sent from the memo = %v, want %v", ev.name, fromMemo, ev.fromMemo)
				}
				if !ev.fromMemo {
					refill(ev.name)
				}
			}
		})
	}
}

// TestPackedHitAllocs: a kept reply costs nothing to allocate on the
// read loop — no Message for the query, none for the reply, no Result, no
// string for the probe's key — with the guard off and with the guard
// admitting the client, for a short name and for one of over 180 bytes,
// past the 32 a string kept on the stack holds.
func TestPackedHitAllocs(t *testing.T) {
	f := newFixture(t, Config{})
	long := strings.Repeat(strings.Repeat("l", 59)+".", 3) + "ucla.edu."
	f.cs.Cache().Put([]dnswire.RR{rrA(long, 300, "10.9.9.7")}, cache.CredAnswer, false)
	g := guard.New(f.cs, guard.Config{ClientRPS: 1e9, Clock: f.clock})
	client := netip.MustParseAddrPort("192.0.2.1:5353")
	buf := make([]byte, 0, 4096)
	for _, name := range []string{"www.ucla.edu.", long} {
		q := dnswire.NewQuery(1, dnswire.MustName(name), dnswire.TypeA)
		q.Flags.RecursionDesired = true
		f.cs.HandleQuery(q)
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		key, id, ok := dnswire.QueryKey(wire, nil)
		if !ok {
			t.Fatalf("%s: a plain query has no key", name)
		}
		for _, tc := range []struct {
			name   string
			inline transport.InlineHandler
		}{{"guard off", f.cs}, {"guard admitting", g}} {
			var query transport.Query
			ask := func() {
				query = transport.Query{Wire: wire, Key: key, ID: id, From: client}
				if packed, _, _ := tc.inline.HandleInline(&query, buf); packed == nil {
					t.Fatalf("%s, %d-byte name: no packed reply", tc.name, len(name))
				}
			}
			ask() // keeps the reply on the entry, unless the first case did
			before := f.cs.Stats().PackedAnswers
			if allocs := testing.AllocsPerRun(200, ask); allocs != 0 && !race.Enabled {
				t.Errorf("%s, %d-byte name: %.0f allocations per kept reply, want 0", tc.name, len(name), allocs)
			}
			if f.cs.Stats().PackedAnswers == before {
				t.Errorf("%s, %d-byte name: the replies were not the kept ones", tc.name, len(name))
			}
		}
	}
}

// TestReplacedEntryUnreachable: a reply kept on an entry does not keep
// the entry alive. After a replacing Put, an Evict, and an expiry swept by
// SweepExpired, the entry the last reply was packed from is collected:
// its finalizer runs after a GC. (A finalizer, not weak.Make: go.mod
// says go 1.22.)
func TestReplacedEntryUnreachable(t *testing.T) {
	f := newFixture(t, Config{})
	name := dnswire.MustName("www.ucla.edu.")
	q := dnswire.NewQuery(5, name, dnswire.TypeA)
	q.Flags.RecursionDesired = true
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// kept resolves the name, sends it through the read loop until the
	// reply goes out from its entry, and returns a channel the entry's
	// finalizer closes.
	kept := func(when string) <-chan struct{} {
		t.Helper()
		f.cs.HandleQuery(q)
		before := f.cs.Stats().PackedAnswers
		sendWire(t, f.cs, wire)
		sendWire(t, f.cs, wire)
		if f.cs.Stats().PackedAnswers == before {
			t.Fatalf("%s: no reply went out from the entry", when)
		}
		collected := make(chan struct{})
		runtime.SetFinalizer(f.cs.Cache().Peek(name, dnswire.TypeA), func(*cache.Entry) { close(collected) })
		return collected
	}
	for _, ev := range []struct {
		name  string
		apply func()
	}{
		{"replacing Put", func() {
			f.cs.Cache().Put([]dnswire.RR{rrA("www.ucla.edu.", 300, "10.9.9.6")}, cache.CredAnswer, false)
		}},
		{"Evict", func() { f.cs.Cache().Evict(name, dnswire.TypeA) }},
		{"expiry and sweep", func() {
			f.clock.Advance(time.Hour)
			f.cs.Cache().SweepExpired()
		}},
	} {
		collected := kept(ev.name)
		ev.apply()
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(time.Second):
			t.Errorf("%s: the entry the reply was packed from is still reachable", ev.name)
		}
	}
}

// TestPackedRaceWithPuts: replies sent from their entry while another
// goroutine replaces the RRset never carry data other than the entry live
// when they are sent. Checkers hold the writer off while they ask, so
// their answers must be exactly the live data; free readers, under the
// race detector, must always see one of the two. The writer asks twice
// after each Put, so a reply is kept and served from between Puts.
func TestPackedRaceWithPuts(t *testing.T) {
	f := newFixture(t, Config{})
	q := dnswire.NewQuery(9, dnswire.MustName("www.ucla.edu."), dnswire.TypeA)
	q.Flags.RecursionDesired = true
	f.cs.HandleQuery(q)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	addrs := [2]string{"10.9.9.9", "10.9.9.8"}
	answer := func(out []byte) string {
		resp, err := dnswire.Unpack(out)
		if err != nil || len(resp.Answer) != 1 {
			return fmt.Sprintf("unreadable (%v)", err)
		}
		return resp.Answer[0].Data.(dnswire.A).Addr.String()
	}

	var mu sync.Mutex // held by the writer per Put, by a checker per ask
	live := addrs[0]
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= 400; i++ {
			mu.Lock()
			live = addrs[i%2]
			f.cs.Cache().Put([]dnswire.RR{rrA("www.ucla.edu.", 300, live)}, cache.CredAnswer, false)
			mu.Unlock()
			// Keep a reply and send from it, whatever the readers got to.
			sendWire(t, f.cs, wire)
			sendWire(t, f.cs, wire)
		}
		close(done)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(checker bool) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if checker {
					mu.Lock()
				}
				out, _ := sendWire(t, f.cs, wire)
				got := answer(out)
				if checker {
					want := live
					mu.Unlock()
					if got != want {
						t.Errorf("sent %s while %s was live", got, want)
						return
					}
				} else if got != addrs[0] && got != addrs[1] {
					t.Errorf("sent %s, which was never cached", got)
					return
				}
			}
		}(r%2 == 0)
	}
	wg.Wait()
	if f.cs.Stats().PackedAnswers == 0 {
		t.Error("no reply was sent from the memo")
	}
}
