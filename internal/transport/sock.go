package transport

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Conn is one stream connection: what the TCP server, the TCP exchange and
// the debug endpoint use of it.
type Conn interface {
	io.ReadWriteCloser
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Listener is what an accept loop uses of a stream listener.
type Listener interface {
	Accept() (Conn, error)
	Close() error
}

// ParseAddr parses an address to bind or dial: an IP:port literal, or
// ":port" for every address (dual-stack, as [::]:port). Nothing here
// resolves a name, so a host name is refused, and so is a zoned IPv6
// address, whose interface only a name lookup could turn into an index.
func ParseAddr(s string) (netip.AddrPort, error) {
	if port, ok := strings.CutPrefix(s, ":"); ok {
		p, err := strconv.ParseUint(port, 10, 16)
		if err != nil {
			return netip.AddrPort{}, fmt.Errorf("address %q: bad port", s)
		}
		return netip.AddrPortFrom(netip.IPv6Unspecified(), uint16(p)), nil
	}
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("address %q: want an IP:port literal", s)
	}
	if ap.Addr().Zone() != "" {
		return netip.AddrPort{}, fmt.Errorf("address %q: zoned addresses are not supported", s)
	}
	return ap, nil
}

// ListenPair binds udp and then tcp to one address and starts both,
// returning the bound address. When the port is kernel-picked (0), its
// TCP twin may already be bound by another socket on the machine; then
// the pair moves to a fresh port, up to 10 tries. Neither server serves
// until both are bound.
func ListenPair(udp *UDPServer, tcp *TCPServer, ap netip.AddrPort) (string, error) {
	if udp.Handler == nil || tcp.Handler == nil {
		return "", errors.New("transport: ListenPair without Handler")
	}
	for attempt := 1; ; attempt++ {
		uc, err := ListenUDP(ap)
		if err != nil {
			return "", err
		}
		ln, err := ListenTCP(uc.LocalAddr())
		if err != nil {
			uc.Close()
			if ap.Port() == 0 && errors.Is(err, syscall.EADDRINUSE) && attempt < 10 {
				continue
			}
			return "", err
		}
		udp.start(uc)
		tcp.start(ln)
		return uc.LocalAddr().String(), nil
	}
}
