//go:build !386

package transport

import (
	"fmt"
	"net/netip"
	"os"
	"syscall"
	"time"
	"unsafe"

	"resilientdns/internal/dnswire"
)

// maxIdleSockets caps each family's free list of exchange sockets: what a
// burst opens beyond it is closed when its exchange ends.
const maxIdleSockets = 64

// idleSockets are the exchange sockets between exchanges, per family
// (AF_INET, AF_INET6): nonblocking, in the runtime poller, unconnected
// and holding no port.
var idleSockets = [2]chan *exchangeSock{make(chan *exchangeSock, maxIdleSockets), make(chan *exchangeSock, maxIdleSockets)}

// exchangeSock is an upstream exchange's socket and the exchange's state
// beside it: the server's raw address, the query and deadline the read
// waits on, the reply or error it leaves, and the read callback, bound
// once when the socket is opened. It serves one exchange at a time: an
// exchange takes it off its free list and puts it back when it ends.
type exchangeSock struct {
	f        *os.File
	rc       syscall.RawConn
	fd       uintptr
	family   int
	idle     chan *exchangeSock
	sa       sockaddr
	r        udpOp // the datagram being read, and its source
	query    *dnswire.Message
	deadline time.Time
	resp     *dnswire.Message
	err      error
	read     func(fd uintptr) bool
}

// unspec is the AF_UNSPEC address whose connect dissolves a datagram
// socket's association and unbinds its auto-bound port.
var unspec syscall.RawSockaddr

// exchangeUDP sends query to ap from a pooled socket, connected for this
// exchange, and returns the first datagram from ap that answers it,
// waiting no later than deadline.
//
// The connect auto-binds a fresh random port (RFC 5452), and release
// gives it back: the descriptor, its poller registration and its os.File
// outlive the exchange, its port does not. While it waits, an exchange
// holds its socket and its deadline and no buffer: the query's scratch
// goes back once the write returns, and a read buffer is leased only while
// the socket has datagrams queued (readReply).
func exchangeUDP(ap netip.AddrPort, query *dnswire.Message, deadline time.Time) (*dnswire.Message, error) {
	s, err := takeSock(ap)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrServerUnreachable, err)
	}
	defer s.release()
	if err := s.connect(ap); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrServerUnreachable, err)
	}
	if err := s.f.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := writeQuery(s.f, query); err != nil {
		return nil, err
	}
	s.query, s.deadline = query, deadline
	if err := s.rc.Read(s.read); err != nil {
		return nil, err
	}
	return s.resp, s.err
}

// takeSock takes an idle socket of ap's family off its free list, or
// opens one, nonblocking from the start, and hands it to the runtime
// poller.
func takeSock(ap netip.AddrPort) (*exchangeSock, error) {
	family, idle := syscall.AF_INET6, idleSockets[1]
	if ap.Addr().Unmap().Is4() {
		family, idle = syscall.AF_INET, idleSockets[0]
	}
	select {
	case s := <-idle:
		return s, nil
	default:
	}
	fd, err := syscall.Socket(family, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	f, rc, err := pollable(fd)
	if err != nil {
		return nil, err
	}
	s := &exchangeSock{f: f, rc: rc, fd: uintptr(fd), family: family, idle: idle}
	s.read = s.readReply
	return s, nil
}

// connect connects the socket to ap, which has no zone (ParseAddr); the
// kernel binds it a fresh random port, as it does a new socket's.
func (s *exchangeSock) connect(ap netip.AddrPort) error {
	if err := s.sa.set(ap, s.family); err != nil {
		return err
	}
	if _, _, e := syscall.Syscall(syscall.SYS_CONNECT, s.fd, uintptr(unsafe.Pointer(&s.sa.raw)), uintptr(s.sa.len)); e != 0 {
		return os.NewSyscallError("connect", e)
	}
	return nil
}

// release ends the exchange on s. It disconnects the socket, which gives
// its port back, so a late reply meets a closed port as it would after
// close, and drains it: a datagram queued after the answer, or an ICMP
// error the kernel keeps pending on the socket, must not reach the next
// exchange, where the error would fail an innocent server. The socket
// then goes back on its free list; one that fails either step, or finds
// the list full, is closed.
func (s *exchangeSock) release() {
	s.query, s.resp, s.err = nil, nil, nil
	if s.disconnect() {
		select {
		case s.idle <- s:
			return
		default:
		}
	}
	s.f.Close()
}

// disconnect connects the socket to AF_UNSPEC, which unbinds its port,
// and then reads it empty: every queued datagram, and the pending error,
// which a read returns once and clears. It reports whether the socket was
// left disconnected and empty.
func (s *exchangeSock) disconnect() bool {
	if _, _, e := syscall.Syscall(syscall.SYS_CONNECT, s.fd, uintptr(unsafe.Pointer(&unspec)), unsafe.Sizeof(unspec)); e != 0 {
		return false
	}
	for pending := true; ; {
		_, _, e := syscall.Syscall6(syscall.SYS_RECVFROM, s.fd, 0, 0, syscall.MSG_DONTWAIT|syscall.MSG_TRUNC, 0, 0)
		switch e {
		case 0, syscall.EINTR:
		case syscall.EAGAIN:
			return true
		default:
			if !pending {
				return false
			}
			pending = false
		}
	}
}

// readReply is the poller's readable callback: it leaves on s the first
// datagram from s's server that answers s.query. The read buffer is leased
// only inside it, and it drains every queued datagram until one answers or
// the socket would block; the buffer goes back before the exchange parks
// again, so a parked exchange holds no buffer. Unpack keeps no byte of the
// buffer, so the reply never aliases it. Datagrams that keep arriving and
// never answer still end the wait at the deadline.
func (s *exchangeSock) readReply(fd uintptr) bool {
	bp := getBuf()
	s.r.buf = (*bp)[:readBufSize]
	defer func() { s.r.buf = nil; putBuf(bp) }()
	for s.r.recvfrom(fd) {
		if s.r.err != 0 {
			s.err = os.NewSyscallError("recvfrom", s.r.err)
			return true
		}
		if s.r.sa.samePeer(&s.sa) {
			if resp, ok := answers(s.query, s.r.buf[:s.r.n]); ok {
				s.resp = resp
				return true
			}
		}
		if !time.Now().Before(s.deadline) {
			s.err = os.ErrDeadlineExceeded
			return true
		}
	}
	return false // drained: park again, holding no buffer
}
