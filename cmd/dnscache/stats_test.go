package main

import (
	"encoding/json"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/debughttp"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/simnet"
)

// TestStatsSectionsAreReadOnly drives the section list dnscache itself
// serves: a GET of /debug/stats must not sweep the cache (it used to
// write-lock every shard), and the occupancy it reports still leaves the
// expired entries out.
func TestStatsSectionsAreReadOnly(t *testing.T) {
	clock := simclock.NewVirtual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	cs, err := core.NewCachingServer(core.Config{
		Transport: simnet.New(clock, 1),
		Clock:     clock,
		RootHints: []core.ServerRef{{Host: "a.root.", Addr: "198.41.0.4"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	put := func(name dnswire.Name, ttl uint32) {
		cs.Cache().Put([]dnswire.RR{{Name: name, Class: dnswire.ClassIN, TTL: ttl,
			Data: dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}}}, cache.CredAnswer, false)
	}
	put("short.example.", 10)
	put("long.example.", 3600)
	clock.Advance(time.Minute)
	if cs.Cache().Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2 (one of them expired)", cs.Cache().Len())
	}

	mux := debughttp.New(debughttp.Options{Sections: statsSections(time.Now(), cs, nil)})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/stats", nil))
	var p struct {
		Cache cache.Stats `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if p.Cache.Entries != 1 {
		t.Errorf(`"cache".Entries = %d, want 1: the expired entry is not live`, p.Cache.Entries)
	}
	if cs.Cache().Len() != 2 {
		t.Errorf("the GET swept the cache: %d entries left, want 2", cs.Cache().Len())
	}
}
