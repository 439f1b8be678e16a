//go:build !386

package transport

// The sockets dnscache binds and dials, opened with syscall and handed to
// the runtime poller as files (os.NewFile), the way openUDP opens an
// exchange's socket. Nothing here imports net, so a binary built on it
// links neither net's resolver nor, through it, runtime/cgo and libc.
// Every option net would set on the same socket is set here too, and no
// other: IPV6_V6ONLY off on an AF_INET6 socket, SO_BROADCAST on a
// datagram one, SO_REUSEADDR on a listener, and TCP_NODELAY plus net's
// default keep-alive on every connection.
//
// A callback handed to syscall.RawConn always makes its syscall before it
// asks to park: the poller has cleared any readiness it saw before the
// call (prepareRead), so a callback that parked first would wait for an
// edge that already came and went.

import (
	"encoding/binary"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// ErrClosed is returned by a read, write or accept on a socket after its
// Close; a serve loop ends on it.
var ErrClosed = os.ErrClosed

// sockaddr is a socket address in the kernel's layout: a sockaddr_in6, or
// a sockaddr_in over its first bytes.
type sockaddr struct {
	raw syscall.RawSockaddrInet6
	len uint32
}

func (sa *sockaddr) in4() *syscall.RawSockaddrInet4 {
	return (*syscall.RawSockaddrInet4)(unsafe.Pointer(&sa.raw))
}

// set stores ap for a socket of family: a v4 address goes to an AF_INET6
// socket v4-mapped, and a zone must be an interface index.
func (sa *sockaddr) set(ap netip.AddrPort, family int) error {
	ip := ap.Addr()
	if family == syscall.AF_INET {
		if ip = ip.Unmap(); !ip.Is4() {
			return &os.SyscallError{Syscall: "sockaddr", Err: syscall.EAFNOSUPPORT}
		}
		*sa.in4() = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: ip.As4()}
		*port(&sa.in4().Port) = [2]byte{byte(ap.Port() >> 8), byte(ap.Port())}
		sa.len = syscall.SizeofSockaddrInet4
		return nil
	}
	var scope uint64
	if z := ip.Zone(); z != "" {
		var err error
		if scope, err = strconv.ParseUint(z, 10, 32); err != nil {
			return &os.SyscallError{Syscall: "sockaddr", Err: syscall.EINVAL}
		}
	}
	sa.raw = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: ip.As16(), Scope_id: uint32(scope)}
	*port(&sa.raw.Port) = [2]byte{byte(ap.Port() >> 8), byte(ap.Port())}
	sa.len = syscall.SizeofSockaddrInet6
	return nil
}

// addrPort is the address set or filled in by the kernel; a link-local
// source keeps its interface index as a numeric zone.
func (sa *sockaddr) addrPort() netip.AddrPort {
	if sa.raw.Family == syscall.AF_INET {
		return netip.AddrPortFrom(netip.AddrFrom4(sa.in4().Addr), binary.BigEndian.Uint16(port(&sa.in4().Port)[:]))
	}
	ip := netip.AddrFrom16(sa.raw.Addr)
	if sa.raw.Scope_id != 0 {
		ip = ip.WithZone(strconv.FormatUint(uint64(sa.raw.Scope_id), 10))
	}
	return netip.AddrPortFrom(ip, binary.BigEndian.Uint16(port(&sa.raw.Port)[:]))
}

// port views a sockaddr's port field, which holds network byte order.
func port(p *uint16) *[2]byte { return (*[2]byte)(unsafe.Pointer(p)) }

// socket opens a nonblocking socket for ap with net's default options,
// of the family net would pick: AF_INET for an IPv4 address, v4-mapped
// included, and AF_INET6 for an IPv6 one and for every address (bound as
// [::], dual-stack), falling back to AF_INET 0.0.0.0 on a host without
// IPv6. ap comes back as the address to use.
func socket(ap netip.AddrPort, sotype int) (int, int, netip.AddrPort, error) {
	family := syscall.AF_INET6
	if ip := ap.Addr().Unmap(); ip.Is4() && !ip.IsUnspecified() {
		family = syscall.AF_INET
	}
	if ap.Addr().IsUnspecified() {
		ap = netip.AddrPortFrom(netip.IPv6Unspecified(), ap.Port())
	}
	fd, err := syscall.Socket(family, sotype|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err == syscall.EAFNOSUPPORT && ap.Addr().IsUnspecified() {
		family, ap = syscall.AF_INET, netip.AddrPortFrom(netip.IPv4Unspecified(), ap.Port())
		fd, err = syscall.Socket(family, sotype|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	}
	if err != nil {
		return -1, 0, ap, os.NewSyscallError("socket", err)
	}
	if family == syscall.AF_INET6 {
		syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0)
	}
	if sotype == syscall.SOCK_DGRAM {
		err = os.NewSyscallError("setsockopt", syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_BROADCAST, 1))
	}
	if err != nil {
		syscall.Close(fd)
		return -1, 0, ap, err
	}
	return fd, family, ap, nil
}

// sock is a bound socket in the runtime poller.
type sock struct {
	f      *os.File
	rc     syscall.RawConn
	family int
	local  netip.AddrPort
	closed atomic.Bool
}

// listen opens a socket of sotype bound to ap; a stream socket gets
// SO_REUSEADDR first and the host's largest backlog after, as net's.
func listen(ap netip.AddrPort, sotype int) (*sock, error) {
	fd, family, ap, err := socket(ap, sotype)
	if err != nil {
		return nil, err
	}
	local, err := bind(fd, family, sotype, ap)
	if err != nil {
		syscall.Close(fd)
		return nil, err
	}
	f, rc, err := pollable(fd)
	if err != nil {
		return nil, err
	}
	return &sock{f: f, rc: rc, family: family, local: local}, nil
}

// bind binds fd to ap, listens on a stream socket, and returns the
// address the kernel bound.
func bind(fd, family, sotype int, ap netip.AddrPort) (netip.AddrPort, error) {
	if sotype == syscall.SOCK_STREAM {
		if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err != nil {
			return ap, os.NewSyscallError("setsockopt", err)
		}
	}
	var sa sockaddr
	if err := sa.set(ap, family); err != nil {
		return ap, err
	}
	if _, _, e := syscall.Syscall(syscall.SYS_BIND, uintptr(fd), uintptr(unsafe.Pointer(&sa.raw)), uintptr(sa.len)); e != 0 {
		return ap, os.NewSyscallError("bind", e)
	}
	if sotype == syscall.SOCK_STREAM {
		if err := syscall.Listen(fd, listenBacklog()); err != nil {
			return ap, os.NewSyscallError("listen", err)
		}
	}
	sa.len = uint32(unsafe.Sizeof(sa.raw))
	if _, _, e := syscall.Syscall(syscall.SYS_GETSOCKNAME, uintptr(fd), uintptr(unsafe.Pointer(&sa.raw)), uintptr(unsafe.Pointer(&sa.len))); e != 0 {
		return ap, os.NewSyscallError("getsockname", e)
	}
	return sa.addrPort(), nil
}

// listenBacklog is net.core.somaxconn, the kernel's cap on any backlog.
var listenBacklog = sync.OnceValue(func() int {
	b, err := os.ReadFile("/proc/sys/net/core/somaxconn")
	if err != nil {
		return syscall.SOMAXCONN
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(b)))
	if err != nil || n <= 0 {
		return syscall.SOMAXCONN
	}
	return n
})

// pollable hands fd to the runtime poller.
func pollable(fd int) (*os.File, syscall.RawConn, error) {
	f := os.NewFile(uintptr(fd), "socket")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, rc, nil
}

// wrap turns the poller's error for a closed socket into ErrClosed.
func (s *sock) wrap(err error) error {
	if s.closed.Load() {
		return ErrClosed
	}
	return err
}

// Close closes the socket; a call parked on it returns ErrClosed.
func (s *sock) Close() error {
	if s.closed.Swap(true) {
		return ErrClosed
	}
	return s.f.Close()
}

// UDPConn is a bound UDP socket. Reads are serialized, as are writes,
// which is what the poller does to a socket's readers and writers anyway;
// each direction has its one operation state and callback, bound by
// ListenUDP, so a datagram allocates nothing.
type UDPConn struct {
	*sock
	rmu sync.Mutex
	r   udpOp
	wmu sync.Mutex
	w   udpOp
}

// udpOp is one datagram read or write: its buffer, its peer, its result.
type udpOp struct {
	buf []byte
	sa  sockaddr
	n   int
	err syscall.Errno
	fn  func(fd uintptr) bool
}

func (op *udpOp) recvfrom(fd uintptr) bool {
	for {
		op.sa.len = uint32(unsafe.Sizeof(op.sa.raw))
		n, _, e := syscall.Syscall6(syscall.SYS_RECVFROM, fd, uintptr(unsafe.Pointer(unsafe.SliceData(op.buf))), uintptr(len(op.buf)),
			0, uintptr(unsafe.Pointer(&op.sa.raw)), uintptr(unsafe.Pointer(&op.sa.len)))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		op.n, op.err = int(n), e
		return true
	}
}

func (op *udpOp) sendto(fd uintptr) bool {
	for {
		n, _, e := syscall.Syscall6(syscall.SYS_SENDTO, fd, uintptr(unsafe.Pointer(unsafe.SliceData(op.buf))), uintptr(len(op.buf)),
			0, uintptr(unsafe.Pointer(&op.sa.raw)), uintptr(op.sa.len))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		op.n, op.err = int(n), e
		return true
	}
}

// ListenUDP binds a UDP socket to ap.
func ListenUDP(ap netip.AddrPort) (*UDPConn, error) {
	s, err := listen(ap, syscall.SOCK_DGRAM)
	if err != nil {
		return nil, err
	}
	c := &UDPConn{sock: s}
	c.r.fn, c.w.fn = c.r.recvfrom, c.w.sendto
	return c, nil
}

// ReadFromUDPAddrPort reads one datagram into b.
func (c *UDPConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.r.buf = b
	err := c.rc.Read(c.r.fn)
	c.r.buf = nil
	if err != nil {
		return 0, netip.AddrPort{}, c.wrap(err)
	}
	if c.r.err != 0 {
		return 0, netip.AddrPort{}, os.NewSyscallError("recvfrom", c.r.err)
	}
	return c.r.n, c.r.sa.addrPort(), nil
}

// WriteToUDPAddrPort sends b to to as one datagram.
func (c *UDPConn) WriteToUDPAddrPort(b []byte, to netip.AddrPort) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.w.sa.set(to, c.family); err != nil {
		return 0, err
	}
	c.w.buf = b
	err := c.rc.Write(c.w.fn)
	c.w.buf = nil
	if err != nil {
		return 0, c.wrap(err)
	}
	if c.w.err != 0 {
		return 0, os.NewSyscallError("sendto", c.w.err)
	}
	return c.w.n, nil
}

// LocalAddr is the bound address.
func (c *UDPConn) LocalAddr() netip.AddrPort { return c.local }

// TCPListener is a listening TCP socket.
type TCPListener struct{ *sock }

// ListenTCP binds a TCP listener to ap.
func ListenTCP(ap netip.AddrPort) (*TCPListener, error) {
	s, err := listen(ap, syscall.SOCK_STREAM)
	if err != nil {
		return nil, err
	}
	return &TCPListener{s}, nil
}

// Accept waits for the next connection.
func (l *TCPListener) Accept() (Conn, error) {
	nfd, errno := -1, syscall.Errno(0)
	err := l.rc.Read(func(fd uintptr) bool {
		for {
			r, _, e := syscall.Syscall6(syscall.SYS_ACCEPT4, fd, 0, 0, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0, 0)
			switch e {
			case syscall.EINTR, syscall.ECONNABORTED:
				continue // a connection reset while queued: take the next
			case syscall.EAGAIN:
				return false
			}
			nfd, errno = int(r), e
			return true
		}
	})
	switch {
	case err != nil:
		return nil, l.wrap(err)
	case errno != 0:
		return nil, os.NewSyscallError("accept4", errno)
	}
	setConnOpts(nfd)
	f, _, err := pollable(nfd)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Addr is the bound address.
func (l *TCPListener) Addr() netip.AddrPort { return l.local }

// setConnOpts sets what net sets on every TCP connection: no Nagle delay,
// and keep-alive probes after 15 s idle, every 15 s, 9 of them.
func setConnOpts(fd int) {
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1)
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, 15)
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, 15)
	syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_KEEPCNT, 9)
}

// connectTCP connects to ap, waiting for the handshake no later than
// deadline, which the connection keeps as its read and write deadline.
func connectTCP(ap netip.AddrPort, deadline time.Time) (Conn, error) {
	fd, family, ap, err := socket(ap, syscall.SOCK_STREAM)
	if err != nil {
		return nil, err
	}
	var sa sockaddr
	if err := sa.set(ap, family); err != nil {
		syscall.Close(fd)
		return nil, err
	}
	_, _, e := syscall.Syscall(syscall.SYS_CONNECT, uintptr(fd), uintptr(unsafe.Pointer(&sa.raw)), uintptr(sa.len))
	if e != 0 && e != syscall.EINPROGRESS && e != syscall.EINTR {
		syscall.Close(fd)
		return nil, os.NewSyscallError("connect", e)
	}
	f, rc, err := pollable(fd)
	if err != nil {
		return nil, err
	}
	if err := f.SetDeadline(deadline); err != nil {
		f.Close()
		return nil, err
	}
	if e != 0 {
		// The handshake is under way: writable means it ended, and
		// SO_ERROR says how. A wake-up with no error and no peer yet is
		// spurious, as net treats it.
		var cerr error
		err = rc.Write(func(fd uintptr) bool {
			v, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
			if err != nil {
				cerr = os.NewSyscallError("getsockopt", err)
				return true
			}
			switch e := syscall.Errno(v); e {
			case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
				return false
			case 0:
				peer := sockaddr{len: uint32(unsafe.Sizeof(sa.raw))}
				_, _, pe := syscall.Syscall(syscall.SYS_GETPEERNAME, fd, uintptr(unsafe.Pointer(&peer.raw)), uintptr(unsafe.Pointer(&peer.len)))
				return pe == 0
			default:
				cerr = os.NewSyscallError("connect", e)
				return true
			}
		})
		if err == nil {
			err = cerr
		}
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	setConnOpts(fd)
	return f, nil
}
