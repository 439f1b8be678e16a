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
	// HandleQueryCacheOnly answers a peer's fetch strictly from
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
	// Self is this node's mesh address, an IP:port literal: the address
	// peers reach it at, which must equal the address its transport
	// sends from so that cookie confirmation works.
	Self string
	// Key is the fleet's shared HMAC key.
	Key []byte
	// Peers is the membership: every other node's IP:port. Frames from
	// any other source are dropped, and calls to one are refused.
	Peers []string
	// Transport sends request frames to peers.
	Transport Transport
	// Clock is the time source (virtual in tests/experiments).
	Clock simclock.Clock
}

// peer is one configured member as seen locally.
type peer struct {
	addr      string
	ip        netip.Addr
	missed    int       // consecutive failed probes of ours; the state derives from it
	lastProbe time.Time // when we last initiated a probe
	lastSeen  time.Time // last authenticated, confirmed contact

	// cookieIn is the cookie we issued to this source address; a
	// request is trusted only when it echoes it. cookieOut is the
	// cookie the peer last issued to us, attached to our requests.
	cookieIn  uint64
	cookieOut uint64
	confirmed bool // peer has echoed cookieIn at least once
}

// state renders the peer's health for /debug/peers. Dead peers drop out
// of ownership, gossip and peer fetch; suspect ones stay in.
func (p *peer) state() string {
	switch {
	case p.missed >= DefaultDeadAfter:
		return "dead"
	case p.missed >= DefaultSuspectAfter:
		return "suspect"
	}
	return "alive"
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

	mu    sync.Mutex
	peers []*peer // the configured members, sorted by address; fixed after NewNode
}

// ParseAddr checks that s is an IP:port literal with a specified
// address and returns it in canonical form (IPv4-mapped IPv6 unmapped),
// whose String is what a datagram's source address prints as. Host
// names are refused: a node hashes ownership and matches sources by
// that exact string.
func ParseAddr(s string) (netip.AddrPort, error) {
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("mesh: address %q: want an IP:port literal", s)
	}
	if ap.Addr().IsUnspecified() {
		return netip.AddrPort{}, fmt.Errorf("mesh: address %q: unspecified IP, want the one peers reach", s)
	}
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}

// NewNode validates cfg and builds a node with the configured peers
// seeded as alive (optimistically: probes demote unreachable ones
// within DefaultDeadAfter probe intervals).
func NewNode(cfg Config) (*Node, error) {
	if len(cfg.Key) == 0 {
		return nil, errors.New("mesh: Config.Key required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("mesh: Config.Transport required")
	}
	if cfg.Clock == nil {
		return nil, errors.New("mesh: Config.Clock required")
	}
	self, err := ParseAddr(cfg.Self)
	if err != nil {
		return nil, err
	}
	cfg.Self = self.String()
	n := &Node{cfg: cfg, counters: metrics.NewSet[Counters]()}
	now := cfg.Clock.Now()
	for _, s := range cfg.Peers {
		ap, err := ParseAddr(s)
		if err != nil {
			return nil, err
		}
		if addr := ap.String(); addr != cfg.Self && n.peer(addr) == nil {
			n.peers = append(n.peers, &peer{addr: addr, ip: ap.Addr(), cookieIn: newCookie(), lastSeen: now})
		}
	}
	sort.Slice(n.peers, func(i, j int) bool { return n.peers[i].addr < n.peers[j].addr })
	return n, nil
}

// peer returns the configured member at addr, or nil.
func (n *Node) peer(addr string) *peer {
	for _, p := range n.peers {
		if p.addr == addr {
			return p
		}
	}
	return nil
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

// errNotMember refuses a call to an address outside Config.Peers.
var errNotMember = errors.New("mesh: not a configured peer")

// HandleFrame processes one inbound datagram and returns the reply to
// send back to its source, or nil to stay silent. It NEVER makes an
// outbound transport call (transports may invoke it synchronously from
// their read loop, and simnet calls are synchronous), it answers only
// configured members, and it never replies with more bytes than it
// received unless the source has completed the cookie handshake — the
// anti-reflection property.
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

	n.mu.Lock()
	p := n.peer(from)
	if p == nil {
		n.mu.Unlock()
		metrics.Inc(&n.counters.FramesNonMember)
		return nil
	}
	cookie := p.cookieIn
	if f.Cookie == 0 || f.Cookie != cookie {
		// Source has not echoed our cookie: do not act on the request,
		// answer only with a challenge carrying the cookie. The
		// challenge is header+MAC only (34 bytes) — never larger than
		// the smallest possible request — so spoofed-source floods gain
		// no amplification through this port.
		n.mu.Unlock()
		metrics.Inc(&n.counters.FramesUnconfirmed)
		metrics.Inc(&n.counters.ChallengesSent)
		return n.reply(TChallenge, f.Seq, cookie, nil)
	}
	// Cookie echo proves the source receives traffic at this address.
	// Its state stays what our own probes make it.
	p.confirmed = true
	p.lastSeen = n.cfg.Clock.Now()
	n.mu.Unlock()

	switch f.Type {
	case TPing:
		return n.reply(TAck, f.Seq, cookie, nil)
	case TIRRPush:
		zone, msg, err := DecodeIRRPush(f.Payload)
		if err != nil {
			return nil
		}
		metrics.Inc(&n.counters.IRRPushesReceived)
		if n.backend != nil && n.backend.IngestPeerIRRs(zone, msg) {
			metrics.Inc(&n.counters.IRRIngested)
		}
		return n.reply(TIRRAck, f.Seq, cookie, nil)
	case TFetchReq:
		q, err := DecodeMsg(f.Payload)
		if err != nil || n.backend == nil {
			return nil
		}
		// A peer fetch is answered strictly from cache/stale data
		// (HandleQueryCacheOnly never fetches upstream), so a fetch can
		// never cascade into further upstream or peer work.
		resp := n.backend.HandleQueryCacheOnly(q)
		if resp == nil {
			return nil
		}
		payload, err := EncodeMsg(resp)
		if err != nil {
			return nil
		}
		metrics.Inc(&n.counters.FetchesServed)
		return n.reply(TFetchResp, f.Seq, cookie, payload)
	}
	return nil
}

// reply encodes a response frame; the cookie echoed back lets the peer
// pre-confirm its future calls.
func (n *Node) reply(typ byte, seq uint32, cookie uint64, payload []byte) []byte {
	b, err := EncodeFrame(n.cfg.Key, Frame{Type: typ, Seq: seq, Cookie: cookie, Payload: payload})
	if err != nil {
		return nil
	}
	return b
}

// --- outbound path ---

// call sends one request frame to the configured member at addr and
// returns the decoded, sequence-matched response. On a Challenge
// response it adopts the issued cookie and retries once — the normal
// first-contact flow.
func (n *Node) call(ctx context.Context, addr string, typ byte, payload []byte) (Frame, error) {
	n.mu.Lock()
	p := n.peer(addr)
	if p == nil {
		n.mu.Unlock()
		return Frame{}, errNotMember
	}
	cookie := p.cookieOut
	n.mu.Unlock()

	for attempt := 0; ; attempt++ {
		resp, err := n.callOnce(ctx, addr, typ, cookie, payload)
		if err != nil {
			return Frame{}, err
		}
		if resp.Cookie != 0 {
			n.mu.Lock()
			p.cookieOut = resp.Cookie
			n.mu.Unlock()
		}
		if resp.Type != TChallenge {
			return resp, nil
		}
		if attempt >= 1 {
			return Frame{}, errors.New("mesh: peer kept challenging")
		}
		cookie = resp.Cookie
	}
}

func (n *Node) callOnce(ctx context.Context, addr string, typ byte, cookie uint64, payload []byte) (Frame, error) {
	seq := n.seq.Add(1)
	raw, err := EncodeFrame(n.cfg.Key, Frame{Type: typ, Seq: seq, Cookie: cookie, Payload: payload})
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
// interval has elapsed (in sorted order) and applies the results.
// Callers run it from a ticker goroutine in production or interleave it
// with virtual-clock advancement in simulation. Probes are synchronous,
// so a tick can block for one DefaultCallTimeout per unreachable peer;
// run it off the query path.
func (n *Node) Tick(now time.Time) {
	n.mu.Lock()
	var due []*peer
	for _, p := range n.peers {
		if p.lastProbe.IsZero() || now.Sub(p.lastProbe) >= DefaultProbeInterval {
			p.lastProbe = now
			due = append(due, p)
		}
	}
	n.mu.Unlock()

	for _, p := range due {
		metrics.Inc(&n.counters.PingsSent)
		_, err := n.call(context.Background(), p.addr, TPing, nil)
		n.mu.Lock()
		if err != nil {
			metrics.Inc(&n.counters.PingFailures)
			p.missed++
		} else {
			p.missed = 0
			p.confirmed = true
			p.lastSeen = now
		}
		n.mu.Unlock()
	}
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
	for _, addr := range n.livePeers() {
		if _, err := n.call(context.Background(), addr, TIRRPush, payload); err == nil {
			metrics.Inc(&n.counters.IRRPushesSent)
		}
	}
}

// livePeers lists the non-dead peers in sorted order.
func (n *Node) livePeers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, p := range n.peers {
		if p.missed < DefaultDeadAfter {
			out = append(out, p.addr)
		}
	}
	return out
}

// PeerFetch asks one peer's cache for an answer when local resolution
// has failed: the live peer with the highest rendezvous weight for
// qname (the owner keeps the zone warmest; if we are the owner, the
// runner-up is the next-likeliest warm cache). The peer answers from
// cache or stale data only, so a fetch is single-hop. It returns nil
// when no peer can help (no live peers, transport failure, or the peer
// had nothing cached either).
func (n *Node) PeerFetch(ctx context.Context, qname dnswire.Name, qtype dnswire.Type) *dnswire.Message {
	target := ""
	var bestW uint64
	for _, addr := range n.livePeers() {
		if w := rendezvousWeight(addr, qname); target == "" || w > bestW {
			target, bestW = addr, w
		}
	}
	if target == "" {
		return nil
	}
	q := dnswire.NewQuery(uint16(n.seq.Add(1)), qname, qtype)
	payload, err := EncodeMsg(q)
	if err != nil {
		return nil
	}
	metrics.Inc(&n.counters.FetchesSent)
	resp, err := n.call(ctx, target, TFetchReq, payload)
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

// IsPeerIP reports whether ip belongs to a handshake-confirmed mesh
// peer. The guard layer uses it to exempt fleet members from the
// per-client rate limiter.
func (n *Node) IsPeerIP(ip netip.Addr) bool {
	ip = ip.Unmap()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, p := range n.peers {
		if p.confirmed && p.ip == ip {
			return true
		}
	}
	return false
}

// PeerInfo is one member's row in Snapshot (and /debug/peers).
type PeerInfo struct {
	Addr      string    `json:"addr"`
	State     string    `json:"state"`
	Confirmed bool      `json:"confirmed"`
	Missed    int       `json:"missed,omitempty"`
	LastSeen  time.Time `json:"last_seen"`
}

// Snapshot is the node's membership view plus counters, served at
// /debug/peers.
type Snapshot struct {
	Self     string     `json:"self"`
	Peers    []PeerInfo `json:"peers"`
	Counters Counters   `json:"counters"`
}

// Snapshot captures the current membership view.
func (n *Node) Snapshot() Snapshot {
	n.mu.Lock()
	s := Snapshot{Self: n.cfg.Self}
	for _, p := range n.peers {
		s.Peers = append(s.Peers, PeerInfo{
			Addr:      p.addr,
			State:     p.state(),
			Confirmed: p.confirmed,
			Missed:    p.missed,
			LastSeen:  p.lastSeen,
		})
	}
	n.mu.Unlock()
	s.Counters = metrics.Snapshot(n.counters)
	return s
}
