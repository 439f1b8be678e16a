package mesh

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientdns/internal/dnswire"
	"resilientdns/internal/metrics"
	"resilientdns/internal/simclock"
)

// Transport carries one mesh request to a peer and returns the matched
// response frame bytes. Implementations exist over real UDP sockets
// (Conn, production) and over the deterministic simulated network
// (simnet.MeshPort, tests and experiments). The method is deliberately
// not named Exchange: the onepath analyzer reserves that shape for the
// DNS fetch engine, and mesh calls are not upstream DNS fetches.
type Transport interface {
	Call(ctx context.Context, peer string, frame []byte) ([]byte, error)
}

// Backend is what the mesh needs from the caching server: read one
// zone's IRR set for gossip, ingest a peer's pushed set through the
// validated ingest path, and answer a peer's fetch from cache/stale
// data only. internal/core implements it; the interface lives here so
// mesh does not import core.
type Backend interface {
	// ZoneIRRMessage renders the zone's live NS set plus cached glue as
	// a response-shaped message with remaining TTLs, or nil when the
	// zone's NS set is not cached.
	ZoneIRRMessage(zone dnswire.Name) *dnswire.Message
	// IngestPeerIRRs validates and ingests a pushed IRR set, reporting
	// whether it was accepted.
	IngestPeerIRRs(zone dnswire.Name, msg *dnswire.Message) bool
	// HandleQueryCacheOnly answers a peer's relayed query strictly from
	// cached or stale data (never an upstream fetch).
	HandleQueryCacheOnly(q *dnswire.Message) *dnswire.Message
}

// Probe timing and failure-detection thresholds.
const (
	DefaultProbeInterval = 1 * time.Second
	DefaultCallTimeout   = 1 * time.Second
	// DefaultSuspectAfter / DefaultDeadAfter are consecutive failed
	// probes before a peer is demoted. Dead peers drop out of the
	// ownership hash; suspect peers stay in (one lost datagram must not
	// reshuffle renewal duty fleet-wide).
	DefaultSuspectAfter = 2
	DefaultDeadAfter    = 4
)

// Config parameterises a Node.
type Config struct {
	// Self is this node's canonical mesh address (host:port) — the
	// address peers reach it at, which must equal the address its
	// transport sends from so that cookie confirmation works.
	Self string
	// Key is the fleet's shared HMAC key.
	Key []byte
	// Peers seeds the member list (beyond what digests introduce).
	Peers []string
	// Transport sends request frames to peers.
	Transport Transport
	// Clock is the time source (virtual in tests/experiments).
	Clock simclock.Clock
	// OwnerRenewal enables renewal-ownership deduplication: when set,
	// OwnsRenewal defers zones owned by another live peer.
	OwnerRenewal bool
}

// peer is one remote member as seen locally.
type peer struct {
	addr        string
	ip          netip.Addr // zero when addr has no parseable host IP
	state       PeerState
	incarnation uint64
	missed      int       // consecutive failed probes
	lastProbe   time.Time // when we last initiated a probe
	lastSeen    time.Time // last authenticated, confirmed contact

	// cookieIn is the cookie we issued to this source address; a
	// request is trusted only when it echoes it. cookieOut is the
	// cookie the peer last issued to us, attached to our requests.
	cookieIn  uint64
	cookieOut uint64
	confirmed bool // peer has echoed cookieIn at least once
}

// Node is one mesh member. All exported methods are safe for concurrent
// use; none of them holds the internal lock across a Transport.Call.
type Node struct {
	cfg Config
	// backend is the caching-server integration surface, bound by
	// SetBackend: a node that is its server's core.Config.Fleet has to
	// exist before the server does.
	backend  Backend
	counters *Counters
	seq      atomic.Uint32
	selfIP   netip.Addr

	mu          sync.Mutex
	peers       map[string]*peer
	incarnation uint64
}

// NewNode validates cfg and builds a node with the configured peers
// seeded as alive (optimistically: probes demote unreachable ones
// within DefaultDeadAfter probe intervals).
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("mesh: Config.Self required")
	}
	if len(cfg.Key) == 0 {
		return nil, errors.New("mesh: Config.Key required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("mesh: Config.Transport required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("mesh: Config.Clock required")
	}
	n := &Node{
		cfg:      cfg,
		counters: metrics.NewSet[Counters](),
		selfIP:   addrIP(cfg.Self),
		peers:    make(map[string]*peer),
	}
	now := cfg.Clock.Now()
	for _, addr := range cfg.Peers {
		if addr == "" || addr == cfg.Self {
			continue
		}
		n.peers[addr] = n.newPeer(addr, now)
	}
	return n, nil
}

// addrIP extracts the host IP of a host:port mesh address.
func addrIP(addr string) netip.Addr {
	ap, err := netip.ParseAddrPort(addr)
	if err != nil {
		return netip.Addr{}
	}
	return ap.Addr().Unmap()
}

func (n *Node) newPeer(addr string, now time.Time) *peer {
	return &peer{
		addr:     addr,
		ip:       addrIP(addr),
		state:    StateAlive,
		cookieIn: newCookie(),
		lastSeen: now,
	}
}

// newCookie draws a fresh 64-bit source-confirmation cookie.
func newCookie() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("mesh: crypto/rand failed: %v", err))
	}
	c := binary.BigEndian.Uint64(b[:])
	if c == 0 {
		c = 1 // zero means "no cookie yet" on the wire
	}
	return c
}

// Self returns the node's canonical mesh address.
func (n *Node) Self() string { return n.cfg.Self }

// SetBackend binds the caching server the node serves. Call it before the
// node handles a frame or the server a query; it is not synchronised.
func (n *Node) SetBackend(b Backend) { n.backend = b }

// --- inbound path ---

// HandleFrame processes one inbound datagram and returns the reply to
// send back to its source, or nil to stay silent. It NEVER makes an
// outbound transport call (transports may invoke it synchronously from
// their read loop, and simnet calls are synchronous), and it never
// replies with more bytes than it received unless the source has
// completed the cookie handshake — the anti-reflection property.
func (n *Node) HandleFrame(raw []byte, from string) []byte {
	metrics.Inc(&n.counters.FramesIn)
	f, err := DecodeFrame(n.cfg.Key, raw)
	if err != nil {
		metrics.Inc(&n.counters.FramesBadMAC)
		return nil
	}
	if IsResponseType(f.Type) {
		// Responses are matched to pending calls by the transport; one
		// reaching the request handler is stray — drop it rather than
		// answering (a reply to a reply invites loops).
		return nil
	}

	now := n.cfg.Clock.Now()
	n.mu.Lock()
	p, ok := n.peers[from]
	if !ok {
		// Authenticated under the fleet key but a source we have never
		// seen: admit it to the member list, pending confirmation.
		p = n.newPeer(from, now)
		p.state = StateSuspect // not yet proven reachable at this address
		n.peers[from] = p
	}
	if f.Cookie == 0 || f.Cookie != p.cookieIn {
		// Source has not echoed our cookie: do not act on the request,
		// answer only with a challenge carrying the cookie. The
		// challenge is header+MAC only (35 bytes) — never larger than
		// the smallest possible request — so spoofed-source floods gain
		// no amplification through this port.
		cookie := p.cookieIn
		n.mu.Unlock()
		metrics.Inc(&n.counters.FramesUnconfirmed)
		metrics.Inc(&n.counters.ChallengesSent)
		reply, err := EncodeFrame(n.cfg.Key, Frame{Type: TChallenge, Seq: f.Seq, Cookie: cookie})
		if err != nil {
			return nil
		}
		return reply
	}
	// Cookie echo proves the source receives traffic at this address.
	p.confirmed = true
	p.missed = 0
	p.lastSeen = now
	if p.state != StateAlive {
		p.state = StateAlive
	}
	cookie := p.cookieIn // echoed back so the peer can pre-confirm future calls
	n.mu.Unlock()

	var respType byte
	var payload []byte
	switch f.Type {
	case TPing:
		ping, err := DecodePing(f.Payload)
		if err != nil || ping.From != from {
			return nil
		}
		n.mergeDigest(ping, now)
		respType = TAck
		if payload, err = EncodePing(n.digest()); err != nil {
			return nil
		}
	case TIRRPush:
		zone, msg, err := DecodeIRRPush(f.Payload)
		if err != nil {
			return nil
		}
		metrics.Inc(&n.counters.IRRPushesReceived)
		if n.backend != nil && n.backend.IngestPeerIRRs(zone, msg) {
			metrics.Inc(&n.counters.IRRIngested)
		}
		respType = TIRRAck
	case TFetchReq:
		q, err := DecodeMsg(f.Payload)
		if err != nil || n.backend == nil {
			return nil
		}
		// Relayed or not, a peer fetch is answered strictly from
		// cache/stale data (HandleQueryCacheOnly never fetches upstream),
		// so a fetch can never cascade into further upstream or peer work.
		resp := n.backend.HandleQueryCacheOnly(q)
		if resp == nil {
			return nil
		}
		metrics.Inc(&n.counters.FetchesServed)
		respType = TFetchResp
		if payload, err = EncodeMsg(resp); err != nil {
			return nil
		}
	default:
		return nil
	}
	reply, err := EncodeFrame(n.cfg.Key, Frame{Type: respType, Seq: f.Seq, Cookie: cookie, Payload: payload})
	if err != nil {
		return nil
	}
	return reply
}

// mergeDigest folds a peer's gossiped membership view into ours.
// Higher incarnation wins; at equal incarnation the worse state wins
// (so suspicion spreads until the subject refutes it by bumping its
// incarnation). Entries about self with a bad state are refuted by
// out-bumping their incarnation.
func (n *Node) mergeDigest(p PingPayload, now time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if sender, ok := n.peers[p.From]; ok && p.Incarnation > sender.incarnation {
		sender.incarnation = p.Incarnation
	}
	for _, d := range p.Digest {
		if d.Addr == n.cfg.Self {
			if d.State != StateAlive && d.Incarnation >= n.incarnation {
				n.incarnation = d.Incarnation + 1
			}
			continue
		}
		q, ok := n.peers[d.Addr]
		if !ok {
			q = n.newPeer(d.Addr, now)
			q.state = d.State
			q.incarnation = d.Incarnation
			n.peers[d.Addr] = q
			continue
		}
		switch {
		case d.Incarnation > q.incarnation:
			q.incarnation = d.Incarnation
			q.state = d.State
			if d.State == StateAlive {
				q.missed = 0
			}
		case d.Incarnation == q.incarnation && d.State > q.state:
			q.state = d.State
		}
	}
}

// digest snapshots the local membership view for gossip.
func (n *Node) digest() PingPayload {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := PingPayload{From: n.cfg.Self, Incarnation: n.incarnation}
	p.Digest = append(p.Digest, DigestEntry{Addr: n.cfg.Self, State: StateAlive, Incarnation: n.incarnation})
	for _, addr := range n.sortedPeerAddrsLocked() {
		q := n.peers[addr]
		p.Digest = append(p.Digest, DigestEntry{Addr: q.addr, State: q.state, Incarnation: q.incarnation})
	}
	return p
}

func (n *Node) sortedPeerAddrsLocked() []string {
	addrs := make([]string, 0, len(n.peers))
	for a := range n.peers {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	return addrs
}

// --- outbound path ---

// call sends one request frame to addr and returns the decoded,
// sequence-matched response. On a Challenge response it adopts the
// issued cookie and retries once — the normal first-contact flow.
func (n *Node) call(ctx context.Context, addr string, typ, flags byte, payload []byte) (Frame, error) {
	n.mu.Lock()
	p, ok := n.peers[addr]
	if !ok {
		now := n.cfg.Clock.Now()
		p = n.newPeer(addr, now)
		n.peers[addr] = p
	}
	cookie := p.cookieOut
	n.mu.Unlock()

	for attempt := 0; ; attempt++ {
		resp, err := n.callOnce(ctx, addr, typ, flags, cookie, payload)
		if err != nil {
			return Frame{}, err
		}
		if resp.Type != TChallenge {
			n.mu.Lock()
			if p, ok := n.peers[addr]; ok && resp.Cookie != 0 {
				p.cookieOut = resp.Cookie
			}
			n.mu.Unlock()
			return resp, nil
		}
		if attempt >= 1 {
			return Frame{}, errors.New("mesh: peer kept challenging")
		}
		cookie = resp.Cookie
		n.mu.Lock()
		if p, ok := n.peers[addr]; ok {
			p.cookieOut = cookie
		}
		n.mu.Unlock()
	}
}

func (n *Node) callOnce(ctx context.Context, addr string, typ, flags byte, cookie uint64, payload []byte) (Frame, error) {
	seq := n.seq.Add(1)
	raw, err := EncodeFrame(n.cfg.Key, Frame{Type: typ, Flags: flags, Seq: seq, Cookie: cookie, Payload: payload})
	if err != nil {
		return Frame{}, err
	}
	cctx, cancel := context.WithTimeout(ctx, DefaultCallTimeout)
	defer cancel()
	respRaw, err := n.cfg.Transport.Call(cctx, addr, raw)
	if err != nil {
		return Frame{}, err
	}
	resp, err := DecodeFrame(n.cfg.Key, respRaw)
	if err != nil {
		return Frame{}, err
	}
	if resp.Seq != seq || !IsResponseType(resp.Type) {
		return Frame{}, ErrBadFrame
	}
	return resp, nil
}

// Tick drives the failure detector: it probes every peer whose probe
// interval has elapsed (in deterministic sorted order) and applies the
// results. Callers run it from a ticker goroutine in production or
// interleave it with virtual-clock advancement in simulation. Probes
// are synchronous, so a tick can block for missed×DefaultCallTimeout on
// dead peers; run it off the query path.
func (n *Node) Tick(now time.Time) {
	n.mu.Lock()
	var due []string
	for _, addr := range n.sortedPeerAddrsLocked() {
		p := n.peers[addr]
		if p.lastProbe.IsZero() || now.Sub(p.lastProbe) >= DefaultProbeInterval {
			p.lastProbe = now
			due = append(due, addr)
		}
	}
	n.mu.Unlock()

	for _, addr := range due {
		n.probe(addr, now)
	}
}

func (n *Node) probe(addr string, now time.Time) {
	metrics.Inc(&n.counters.PingsSent)
	payload, err := EncodePing(n.digest())
	if err != nil {
		return
	}
	resp, err := n.call(context.Background(), addr, TPing, 0, payload)
	if err != nil {
		metrics.Inc(&n.counters.PingFailures)
		n.mu.Lock()
		if p, ok := n.peers[addr]; ok {
			p.missed++
			switch {
			case p.missed >= DefaultDeadAfter:
				p.state = StateDead
			case p.missed >= DefaultSuspectAfter:
				if p.state == StateAlive {
					p.state = StateSuspect
				}
			}
		}
		n.mu.Unlock()
		return
	}
	ack, err := DecodePing(resp.Payload)
	if err != nil || ack.From != addr {
		return
	}
	n.mu.Lock()
	if p, ok := n.peers[addr]; ok {
		p.missed = 0
		p.state = StateAlive
		p.confirmed = true
		p.lastSeen = now
		if ack.Incarnation > p.incarnation {
			p.incarnation = ack.Incarnation
		}
	}
	n.mu.Unlock()
	n.mergeDigest(ack, now)
}

// GossipZone pushes the zone's current IRR set to every live peer.
// Core calls it (through core.Config.Fleet) after a successful renewal
// refetch, so one owner's upstream query warms the whole fleet.
func (n *Node) GossipZone(zone dnswire.Name) {
	if n.backend == nil {
		return
	}
	msg := n.backend.ZoneIRRMessage(zone)
	if msg == nil {
		return
	}
	payload, err := EncodeIRRPush(zone, msg)
	if err != nil {
		return
	}
	for _, addr := range n.alivePeers() {
		if _, err := n.call(context.Background(), addr, TIRRPush, 0, payload); err == nil {
			metrics.Inc(&n.counters.IRRPushesSent)
		}
	}
}

// alivePeers lists live remote peers in sorted order.
func (n *Node) alivePeers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, addr := range n.sortedPeerAddrsLocked() {
		if n.peers[addr].state != StateDead {
			out = append(out, addr)
		}
	}
	return out
}

// PeerFetch asks the zone owner's cache for an answer when local
// resolution has failed. It returns nil when no peer can help (no live
// peers, transport failure, or the peer had nothing cached either).
// The request carries FlagRelayed so the serving peer answers strictly
// from cache and never relays onward — peer fetch is single-hop.
func (n *Node) PeerFetch(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) *dnswire.Message {
	target := n.fetchTarget(qname)
	if target == "" {
		return nil
	}
	q := dnswire.NewQuery(uint16(n.seq.Add(1)), qname, qtype)
	payload, err := EncodeMsg(q)
	if err != nil {
		return nil
	}
	metrics.Inc(&n.counters.FetchesSent)
	resp, err := n.call(ctx, target, TFetchReq, FlagRelayed, payload)
	if err != nil {
		return nil
	}
	msg, err := DecodeMsg(resp.Payload)
	if err != nil || !dnswire.EchoesQuestion(q, msg) {
		return nil
	}
	if msg.RCode == dnswire.RCodeServFail || msg.RCode == dnswire.RCodeRefused {
		return nil // the peer had nothing cached either
	}
	metrics.Inc(&n.counters.FetchHits)
	return msg
}

// fetchTarget picks the best peer to ask for qname: the live member
// with the highest rendezvous weight for the enclosing zone, skipping
// self (the owner keeps the zone warmest; if we are the owner, the
// runner-up is the next-likeliest warm cache).
func (n *Node) fetchTarget(qname dnswire.Name) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	best := ""
	var bestW uint64
	for _, addr := range n.sortedPeerAddrsLocked() {
		p := n.peers[addr]
		if p.state == StateDead {
			continue
		}
		if w := rendezvousWeight(addr, qname); best == "" || w > bestW {
			best, bestW = addr, w
		}
	}
	return best
}

// IsPeerIP reports whether ip belongs to a handshake-confirmed mesh
// peer. The guard layer uses it to exempt fleet members from the
// per-client rate limiter.
func (n *Node) IsPeerIP(ip netip.Addr) bool {
	ip = ip.Unmap()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.peers {
		if p.confirmed && p.ip.IsValid() && p.ip == ip {
			return true
		}
	}
	return false
}

// PeerInfo is one member's row in Snapshot (and /debug/peers).
type PeerInfo struct {
	Addr        string    `json:"addr"`
	State       string    `json:"state"`
	Incarnation uint64    `json:"incarnation"`
	Confirmed   bool      `json:"confirmed"`
	Missed      int       `json:"missed,omitempty"`
	LastSeen    time.Time `json:"last_seen"`
}

// Snapshot is the node's membership view plus counters, served at
// /debug/peers.
type Snapshot struct {
	Self        string     `json:"self"`
	Incarnation uint64     `json:"incarnation"`
	OwnerRenew  bool       `json:"owner_renewal"`
	Peers       []PeerInfo `json:"peers"`
	Counters    Counters   `json:"counters"`
}

// Snapshot captures the current membership view.
func (n *Node) Snapshot() Snapshot {
	n.mu.Lock()
	s := Snapshot{Self: n.cfg.Self, Incarnation: n.incarnation, OwnerRenew: n.cfg.OwnerRenewal}
	for _, addr := range n.sortedPeerAddrsLocked() {
		p := n.peers[addr]
		s.Peers = append(s.Peers, PeerInfo{
			Addr:        p.addr,
			State:       p.state.String(),
			Incarnation: p.incarnation,
			Confirmed:   p.confirmed,
			Missed:      p.missed,
			LastSeen:    p.lastSeen,
		})
	}
	n.mu.Unlock()
	s.Counters = metrics.Snapshot(n.counters)
	return s
}
