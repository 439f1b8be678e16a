//go:build !linux || 386

package transport

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"resilientdns/internal/dnswire"
)

// exchangeUDP sends query to ap from a fresh connected socket, opened
// through net.DialUDP, and returns the first datagram that answers it.
// Here the socket's own Read does the waiting, so an exchange holds its
// read buffer for the whole wait; on Linux it is leased only while the
// socket is readable (udp_linux.go).
func exchangeUDP(ap netip.AddrPort, query *dnswire.Message, deadline time.Time) (*dnswire.Message, error) {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(ap))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrServerUnreachable, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := writeQuery(conn, query); err != nil {
		return nil, err
	}
	bp := getBuf()
	defer putBuf(bp)
	buf := (*bp)[:readBufSize]
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		if resp, ok := answers(query, buf[:n]); ok {
			return resp, nil
		}
	}
}
