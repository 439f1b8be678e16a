package core

import (
	"container/heap"
	"context"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/resolve"
)

// renewItem is one scheduled renewal check for a zone's cached IRRs.
type renewItem struct {
	due  time.Time
	zone dnswire.Name
	seq  uint64
}

// renewQueue is a min-heap of renewal checks ordered by (due, seq).
type renewQueue struct {
	items []*renewItem
	seq   uint64
}

func (q *renewQueue) Len() int { return len(q.items) }

func (q *renewQueue) Less(i, j int) bool {
	if !q.items[i].due.Equal(q.items[j].due) {
		return q.items[i].due.Before(q.items[j].due)
	}
	return q.items[i].seq < q.items[j].seq
}

func (q *renewQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *renewQueue) Push(x any) { q.items = append(q.items, x.(*renewItem)) }

func (q *renewQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

// scheduleRenewal enqueues a renewal check for zone shortly before
// expires. At most one queue entry exists per zone; later expiries are
// handled by re-queuing on pop. Fleet members check a whole takeover
// window early: the owner renews at the window's edge so its gossip
// reaches non-owners with time to spare, and a non-owner whose owner
// never delivers still has room for a last-chance local renewal.
func (cs *CachingServer) scheduleRenewal(zone dnswire.Name, expires time.Time) {
	lead := renewLead
	if cs.cfg.Fleet != nil {
		lead = takeoverLead
	}
	cs.scheduleRenewalAt(zone, expires.Add(-lead))
}

// scheduleRenewalAt enqueues a renewal check for zone at exactly due.
func (cs *CachingServer) scheduleRenewalAt(zone dnswire.Name, due time.Time) {
	cs.renewMu.Lock()
	defer cs.renewMu.Unlock()
	if cs.scheduled[zone] {
		return
	}
	cs.scheduled[zone] = true
	cs.renew.seq++
	heap.Push(&cs.renew, &renewItem{due: due, zone: zone, seq: cs.renew.seq})
}

// Owner-renewal deferral timing. Fleet members consider each zone a full
// takeoverLead before expiry. The owner renews right away at the window's
// edge (a few seconds of TTL traded for slack), so in the healthy case
// its gossip extends every non-owner's copy at the first or second poll
// and deferral costs only a couple of checks per TTL cycle. A non-owner
// re-polls every ownerRecheck — long enough for mesh failure detection
// (DefaultDeadAfter×DefaultProbeInterval, ~4 s) to re-derive ownership away
// from a dead owner mid-window — and if the entry is still not extended
// lastChance before expiry, it renews locally anyway: the owner is dead,
// partitioned, or never had the zone (its client shard never queried it),
// and starving the zone would turn the dedup win into blackout failures.
// All three are strictly positive, so a deferral always re-queues in the
// future and the ProcessDueRenewals drain loop terminates.
const (
	takeoverLead = 10 * time.Second
	ownerRecheck = 2 * time.Second
	lastChance   = 2 * time.Second
)

// NextRenewalDue returns the earliest pending renewal check time. The
// trace-driven simulator uses it to advance the virtual clock precisely to
// each renewal instant.
func (cs *CachingServer) NextRenewalDue() (time.Time, bool) {
	cs.renewMu.Lock()
	defer cs.renewMu.Unlock()
	if cs.renew.Len() == 0 {
		return time.Time{}, false
	}
	return cs.renew.items[0].due, true
}

// ProcessDueRenewals runs every renewal check due at or before now and
// returns how many refetches were issued. The scheduler lock is released
// across each zone's refetch, so renewal traffic never blocks concurrent
// query traffic (and vice versa). Items a renewal re-queues are always
// due in the future, so the drain loop terminates.
func (cs *CachingServer) ProcessDueRenewals(ctx context.Context, now time.Time) int {
	issued := 0
	for {
		cs.renewMu.Lock()
		if cs.renew.Len() == 0 || cs.renew.items[0].due.After(now) {
			cs.renewMu.Unlock()
			return issued
		}
		it := heap.Pop(&cs.renew).(*renewItem)
		delete(cs.scheduled, it.zone)
		cs.renewMu.Unlock()
		if cs.renewZone(ctx, it.zone, now) {
			issued++
		}
	}
}

// renewZone decides whether the zone's IRRs should be refetched and, if
// so, spends one credit doing it. Reports whether a refetch was issued.
// Called without renewMu held.
func (cs *CachingServer) renewZone(ctx context.Context, zone dnswire.Name, now time.Time) bool {
	if cs.cfg.Renewal == nil {
		return false
	}
	e := cs.cache.Peek(zone, dnswire.TypeNS)
	if e == nil || !e.Infra() {
		return false // expired or evicted; nothing to renew
	}
	lead := renewLead
	if fleet := cs.cfg.Fleet; fleet != nil {
		// Fleet members act inside the takeover window, not at the
		// solo renewLead instant: the owner renews at the window's
		// edge so gossip lands with time to spare.
		lead = takeoverLead
		if !fleet.OwnsRenewal(zone) && e.Expires().Sub(now) > lastChance {
			// Another fleet member owns this zone's renewal duty:
			// don't spend a credit — its gossiped refresh will extend
			// our copy. Poll through the takeover window so a dead
			// owner's zones are reclaimed once membership re-derives;
			// when the gossip arrives first, the next check sees the
			// new expiry and re-queues far out. If the window runs
			// down to lastChance with no refresh, fall through and
			// renew locally: the owner is unreachable or never had
			// the zone, and letting the entry expire would trade the
			// dedup win for resolution failures.
			metrics.Inc(&cs.stats.RenewalDeferred)
			next := e.Expires().Add(-takeoverLead)
			if !next.After(now) {
				next = now.Add(ownerRecheck)
			}
			cs.scheduleRenewalAt(zone, next)
			return false
		}
	}
	if e.Expires().Add(-lead).After(now) {
		// The entry was refreshed since this check was scheduled;
		// requeue for the real due time.
		cs.scheduleRenewal(zone, e.Expires())
		return false
	}
	cs.renewMu.Lock()
	if cs.credits[zone] < 1 {
		cs.renewMu.Unlock()
		return false // out of credit: let the IRRs expire normally
	}
	cs.credits[zone]--
	cs.renewMu.Unlock()
	metrics.Inc(&cs.stats.RenewalQueries)
	// One renewal cycle gets one retry budget, like one resolution does.
	ctx = resolve.WithRetryBudget(ctx, cs.cfg.Upstream.RetryBudget, time.Time{})
	tr := cs.resolver.NewTrace(resolve.KindRenewal, zone, dnswire.TypeNS)

	// Refetch the zone's own NS RRset from its servers through the shared
	// fetch engine. The response's answer carries the NS set and its glue,
	// which ingest re-caches with answer credibility, resetting the TTL.
	addrs := cs.resolver.ZoneAddrs(e.RRs)
	resp, err := cs.resolver.Refetch(ctx, tr, zone, addrs)
	if err != nil {
		metrics.Inc(&cs.stats.RenewalFailed)
		cs.resolver.FinishTrace(tr, nil, err)
		return true
	}
	cs.resolver.Ingest(resp, zone, zone)
	// Guarantee the renewal outcome even if credibility rules would have
	// ignored the copies: renewal explicitly extends the zone's IRRs (NS
	// and server addresses).
	cs.cache.Extend(zone, dnswire.TypeNS)
	for _, rr := range e.RRs {
		host := rr.Data.(dnswire.NS).Host
		cs.cache.Extend(host, dnswire.TypeA)
		cs.cache.Extend(host, dnswire.TypeAAAA)
	}
	metrics.Inc(&cs.stats.Renewals)
	cs.resolver.FinishTrace(tr, &Result{RCode: dnswire.RCodeNoError}, nil)
	if ne := cs.cache.Peek(zone, dnswire.TypeNS); ne != nil {
		cs.scheduleRenewal(zone, ne.Expires())
	}
	if fleet := cs.cfg.Fleet; fleet != nil {
		fleet.GossipZone(zone)
	}
	return true
}

// renewalCycleTimeout bounds one live renewal sweep. A sweep refetches
// every due zone sequentially, so it inherits the slowest upstream on
// the list; 30s is enough for a handful of full referral walks and
// small enough that a wedged sweep clears before renewals pile up.
const renewalCycleTimeout = 30 * time.Second

// RunRenewalLoop services renewals in real time until ctx is cancelled.
// Use it with the wall clock when running as a live caching server; the
// trace-driven simulator calls ProcessDueRenewals directly instead.
func (cs *CachingServer) RunRenewalLoop(ctx context.Context) {
	const idlePoll = time.Second
	for {
		due, ok := cs.NextRenewalDue()
		var wait time.Duration
		if !ok {
			wait = idlePoll
		} else {
			wait = time.Until(due)
			if wait < 0 {
				wait = 0
			}
			if wait > idlePoll {
				wait = idlePoll
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
		// Each sweep gets its own deadline: a renewal refetch against a
		// black-holed authoritative must not hang the loop (and with it
		// every later renewal) past the next polling rounds. The
		// simulator path (ProcessDueRenewals called directly) stays
		// unbounded — the virtual clock cannot hang.
		cctx, cancel := context.WithTimeout(ctx, renewalCycleTimeout)
		cs.ProcessDueRenewals(cctx, cs.cfg.Clock.Now())
		cancel()
	}
}
