//go:build !linux

package transport

import (
	"net"
	"net/netip"
	"time"

	"resilientdns/internal/dnswire"
)

// readReply returns the first datagram on sock that answers query. Here
// the socket's own Read does the waiting, so an exchange holds its read
// buffer for the whole wait; on Linux it is leased only while the socket
// is readable (udp_linux.go).
func readReply(sock udpSocket, query *dnswire.Message, _ time.Time) (*dnswire.Message, error) {
	bp := getBuf()
	defer putBuf(bp)
	buf := (*bp)[:readBufSize]
	for {
		n, err := sock.Read(buf)
		if err != nil {
			return nil, err
		}
		if resp, ok := answers(query, buf[:n]); ok {
			return resp, nil
		}
	}
}

// openUDP opens the socket through net.DialUDP.
func openUDP(ap netip.AddrPort) (udpSocket, error) {
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(ap))
	if err != nil {
		return nil, err
	}
	return conn, nil
}
