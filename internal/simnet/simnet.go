// Package simnet provides a deterministic in-memory network for
// trace-driven simulation. It implements transport.Transport against
// in-process authoritative server handlers, charges virtual time for every
// exchange, and times out queries to servers whose zone is under attack.
package simnet

import (
	"context"
	"fmt"
	"time"

	"resilientdns/internal/attack"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/simclock"
	"resilientdns/internal/transport"
)

// Host is one simulated authoritative server instance.
type Host struct {
	Addr transport.Addr
	// Zone is the apex of the zone this server is authoritative for; the
	// attack schedule targets zones, taking all their hosts down together.
	Zone    dnswire.Name
	Handler transport.Handler
}

// Stats counts network-level events.
type Stats struct {
	Exchanges   uint64
	Delivered   uint64
	TimedOut    uint64
	Unreachable uint64
}

// Network is a deterministic simulated network. It is not safe for
// concurrent use; the simulator is single-threaded by design.
type Network struct {
	// RTT is the virtual time charged for a successful exchange.
	RTT time.Duration
	// Timeout is the virtual time charged for a failed exchange.
	Timeout time.Duration

	clock  *simclock.Virtual
	hosts  map[transport.Addr]*Host
	attack attack.Schedule
	stats  Stats
}

// New returns a network using the given virtual clock.
// Defaults: 40 ms RTT, 2 s timeout.
func New(clock *simclock.Virtual) *Network {
	return &Network{
		RTT:     40 * time.Millisecond,
		Timeout: 2 * time.Second,
		clock:   clock,
		hosts:   make(map[transport.Addr]*Host),
	}
}

// Register adds a server host to the network.
func (n *Network) Register(h *Host) {
	n.hosts[h.Addr] = h
}

// SetAttack installs the attack schedule.
func (n *Network) SetAttack(s attack.Schedule) { n.attack = s }

// Attack returns the installed attack schedule.
func (n *Network) Attack() attack.Schedule { return n.attack }

// Stats returns a copy of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Hosts returns the number of registered hosts.
func (n *Network) Hosts() int { return len(n.hosts) }

// Exchange implements transport.Transport. Time is charged on the virtual
// clock: RTT on success, Timeout on drop, blackout, or unknown server.
func (n *Network) Exchange(_ context.Context, server transport.Addr, query *dnswire.Message) (*dnswire.Message, error) {
	n.stats.Exchanges++
	now := n.clock.Now()

	h, ok := n.hosts[server]
	if !ok {
		n.stats.Unreachable++
		n.clock.Advance(n.Timeout)
		return nil, fmt.Errorf("%w: no host at %s", transport.ErrServerUnreachable, server)
	}
	if n.attack.ZoneDown(h.Zone, now) {
		n.stats.TimedOut++
		n.clock.Advance(n.Timeout)
		return nil, fmt.Errorf("%w: %s (zone %s under attack)", transport.ErrTimeout, server, h.Zone)
	}

	// Round-trip the message through the wire format so that simulation
	// exercises exactly the same encoding paths as the real transport.
	wire, err := query.Pack()
	if err != nil {
		return nil, err
	}
	decoded, err := dnswire.Unpack(wire)
	if err != nil {
		return nil, err
	}
	resp := h.Handler.HandleQuery(decoded)
	if resp == nil {
		n.stats.TimedOut++
		n.clock.Advance(n.Timeout)
		return nil, fmt.Errorf("%w: %s", transport.ErrTimeout, server)
	}
	respWire, err := resp.Pack()
	if err != nil {
		return nil, err
	}
	out, err := dnswire.Unpack(respWire)
	if err != nil {
		return nil, err
	}
	n.stats.Delivered++
	n.clock.Advance(n.RTT)
	return out, nil
}

var _ transport.Transport = (*Network)(nil)
