package mesh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// Conn is the production mesh transport: one UDP socket per node, used
// for both directions. Sending requests from the same socket the node
// listens on means a request's source address IS the node's canonical
// mesh address, which is what the cookie handshake confirms — peers
// must therefore be configured by the exact IP:port they bind
// (-mesh-listen on one node matches its entry in -mesh-peers on the
// others).
//
// Responses are matched to pending calls by (source address, sequence
// number); everything else is dispatched to the node's request handler
// on the read-loop goroutine.
type Conn struct {
	pc *net.UDPConn

	mu      sync.Mutex
	pending map[pendingKey]chan []byte
	closed  bool
	done    chan struct{}
}

type pendingKey struct {
	addr netip.AddrPort // unmapped, as ParseAddr returns it
	seq  uint32
}

// ListenUDP binds the mesh socket.
func ListenUDP(listen string) (*Conn, error) {
	addr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("mesh: resolve %s: %w", listen, err)
	}
	pc, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("mesh: listen %s: %w", listen, err)
	}
	return &Conn{
		pc:      pc,
		pending: make(map[pendingKey]chan []byte),
		done:    make(chan struct{}),
	}, nil
}

// LocalAddr returns the bound address (useful with port 0 in tests).
func (c *Conn) LocalAddr() string { return c.pc.LocalAddr().String() }

// Serve runs the read loop, dispatching requests to node.HandleFrame
// and responses to their pending Call. It returns when Close is
// called (or the socket fails).
func (c *Conn) Serve(node *Node) error {
	buf := make([]byte, MaxFrame+1)
	for {
		n, from, err := c.pc.ReadFromUDPAddrPort(buf)
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if n > MaxFrame {
			continue // cannot be a valid frame; drop without copying
		}
		raw := make([]byte, n)
		copy(raw, buf[:n])
		from = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())

		if typ, seq, ok := PeekTypeSeq(raw); ok && IsResponseType(typ) {
			c.mu.Lock()
			ch, ok := c.pending[pendingKey{from, seq}]
			if ok {
				delete(c.pending, pendingKey{from, seq})
			}
			c.mu.Unlock()
			if ok {
				ch <- raw // buffered; never blocks the read loop
			}
			continue
		}
		if reply := node.HandleFrame(raw, from.String()); reply != nil {
			_, _ = c.pc.WriteToUDPAddrPort(reply, from)
		}
	}
}

// Call implements Transport: it sends frame to peer, an IP:port
// literal, and waits for the sequence-matched response or ctx expiry.
func (c *Conn) Call(ctx context.Context, peer string, frame []byte) ([]byte, error) {
	dst, err := ParseAddr(peer)
	if err != nil {
		return nil, err
	}
	_, seq, ok := PeekTypeSeq(frame)
	if !ok {
		return nil, ErrBadFrame
	}
	key := pendingKey{dst, seq}
	ch := make(chan []byte, 1)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("mesh: transport closed")
	}
	c.pending[key] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, key)
		c.mu.Unlock()
	}()

	if _, err := c.pc.WriteToUDPAddrPort(frame, dst); err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
		return nil, errors.New("mesh: transport closed")
	}
}

// Close shuts the socket down and unblocks Serve and pending Calls.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	return c.pc.Close()
}

var _ Transport = (*Conn)(nil)
