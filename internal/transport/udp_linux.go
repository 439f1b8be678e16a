package transport

import (
	"net/netip"
	"os"
	"syscall"
	"time"

	"resilientdns/internal/dnswire"
)

// readReply returns the first datagram on sock that answers query. The
// read buffer is leased only inside the poller's readable callback, which
// drains every queued datagram until one answers or the socket would
// block; the buffer goes back before the exchange parks again, so a
// parked exchange holds no buffer. Unpack copies the wire, so the reply
// never aliases it. Datagrams that keep arriving and never answer still
// end the wait at the deadline.
func readReply(sock udpSocket, query *dnswire.Message, deadline time.Time) (*dnswire.Message, error) {
	rc, err := sock.SyscallConn()
	if err != nil {
		return nil, err
	}
	var resp *dnswire.Message
	var rerr error
	err = rc.Read(func(fd uintptr) bool {
		bp := getBuf()
		defer putBuf(bp)
		buf := (*bp)[:readBufSize]
		for {
			n, err := syscall.Read(int(fd), buf)
			switch {
			case err == syscall.EINTR:
				continue
			case err == syscall.EAGAIN:
				return false // drained: park again, holding no buffer
			case err != nil:
				rerr = os.NewSyscallError("read", err)
				return true
			}
			var ok bool
			if resp, ok = answers(query, buf[:n]); ok {
				return true
			}
			if !time.Now().Before(deadline) {
				rerr = os.ErrDeadlineExceeded
				return true
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return resp, rerr
}

// openUDP opens the fresh connected socket itself, nonblocking from the
// start, and hands it to the runtime poller as a file: net.DialUDP's
// SO_BROADCAST, getsockname and getpeername calls and its address objects
// are not needed for one exchange. ap has no zone (ParseAddr).
func openUDP(ap netip.AddrPort) (udpSocket, error) {
	ip := ap.Addr().Unmap()
	var sa syscall.Sockaddr
	family := syscall.AF_INET
	if ip.Is4() {
		sa = &syscall.SockaddrInet4{Port: int(ap.Port()), Addr: ip.As4()}
	} else {
		family = syscall.AF_INET6
		sa = &syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ip.As16()}
	}
	fd, err := syscall.Socket(family, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("connect", err)
	}
	return os.NewFile(uintptr(fd), "udp"), nil
}
