//go:build !linux || 386

package transport

import (
	"net"
	"net/netip"
	"time"
)

// ErrClosed is returned by a read, write or accept on a socket after its
// Close; a serve loop ends on it.
var ErrClosed = net.ErrClosed

// UDPConn is a bound UDP socket; here, net's.
type UDPConn struct{ c *net.UDPConn }

// ListenUDP binds a UDP socket to ap.
func ListenUDP(ap netip.AddrPort) (*UDPConn, error) {
	c, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(ap))
	if err != nil {
		return nil, err
	}
	return &UDPConn{c}, nil
}

// ReadFromUDPAddrPort reads one datagram into b.
func (c *UDPConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	return c.c.ReadFromUDPAddrPort(b)
}

// WriteToUDPAddrPort sends b to to as one datagram.
func (c *UDPConn) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	return c.c.WriteToUDPAddrPort(b, to)
}

// LocalAddr is the bound address.
func (c *UDPConn) LocalAddr() netip.AddrPort { return c.c.LocalAddr().(*net.UDPAddr).AddrPort() }

// Close closes the socket.
func (c *UDPConn) Close() error { return c.c.Close() }

// TCPListener is a listening TCP socket; here, net's.
type TCPListener struct{ l *net.TCPListener }

// ListenTCP binds a TCP listener to ap.
func ListenTCP(ap netip.AddrPort) (*TCPListener, error) {
	l, err := net.ListenTCP("tcp", net.TCPAddrFromAddrPort(ap))
	if err != nil {
		return nil, err
	}
	return &TCPListener{l}, nil
}

// Accept waits for the next connection.
func (l *TCPListener) Accept() (Conn, error) { return l.l.Accept() }

// Addr is the bound address.
func (l *TCPListener) Addr() netip.AddrPort { return l.l.Addr().(*net.TCPAddr).AddrPort() }

// Close stops the listener.
func (l *TCPListener) Close() error { return l.l.Close() }

// connectTCP connects to ap by deadline, which the connection keeps as its
// read and write deadline.
func connectTCP(ap netip.AddrPort, deadline time.Time) (Conn, error) {
	d := net.Dialer{Deadline: deadline}
	c, err := d.Dial("tcp", ap.String())
	if err != nil {
		return nil, err
	}
	if err := c.SetDeadline(deadline); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
