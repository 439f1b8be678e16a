//go:build !386

package transport

import (
	"fmt"
	"net/netip"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"resilientdns/internal/dnswire"
)

// exchangeOp is one UDP exchange's state beside its socket: the peer's
// raw address, the query and deadline the read waits on, the reply or
// error it leaves, and the read callback, bound once when the op is made,
// as udpOp's are for a listener. exchangeOps recycles them, so the read
// state of an exchange costs nothing per exchange.
type exchangeOp struct {
	sa       sockaddr
	query    *dnswire.Message
	deadline time.Time
	resp     *dnswire.Message
	err      error
	read     func(fd uintptr) bool
}

var exchangeOps = sync.Pool{New: func() any {
	op := new(exchangeOp)
	op.read = op.readReply
	return op
}}

// exchangeUDP sends query to ap from a fresh connected socket and returns
// the first datagram that answers it, waiting no later than deadline.
//
// While it waits, an exchange holds its socket and its deadline and no
// buffer: the query's scratch goes back once the write returns, and a read
// buffer is leased only while the socket has datagrams queued
// (readReply).
func exchangeUDP(ap netip.AddrPort, query *dnswire.Message, deadline time.Time) (*dnswire.Message, error) {
	op := exchangeOps.Get().(*exchangeOp)
	defer op.release()
	f, err := op.open(ap)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrServerUnreachable, err)
	}
	defer f.Close()
	if err := f.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := writeQuery(f, query); err != nil {
		return nil, err
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return nil, err
	}
	op.query, op.deadline = query, deadline
	if err := rc.Read(op.read); err != nil {
		return nil, err
	}
	return op.resp, op.err
}

// release drops what the exchange left on op and returns it to
// exchangeOps.
func (op *exchangeOp) release() {
	op.query, op.resp, op.err = nil, nil, nil
	exchangeOps.Put(op)
}

// open opens the fresh connected socket itself, nonblocking from the
// start, connects it through op's raw sockaddr, and hands it to the
// runtime poller as a file: net.DialUDP's SO_BROADCAST, getsockname and
// getpeername calls and its address objects are not needed for one
// exchange. ap has no zone (ParseAddr).
func (op *exchangeOp) open(ap netip.AddrPort) (*os.File, error) {
	family := syscall.AF_INET6
	if ap.Addr().Unmap().Is4() {
		family = syscall.AF_INET
	}
	if err := op.sa.set(ap, family); err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(family, syscall.SOCK_DGRAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	if _, _, e := syscall.Syscall(syscall.SYS_CONNECT, uintptr(fd), uintptr(unsafe.Pointer(&op.sa.raw)), uintptr(op.sa.len)); e != 0 {
		syscall.Close(fd)
		return nil, os.NewSyscallError("connect", e)
	}
	return os.NewFile(uintptr(fd), "udp"), nil
}

// readReply is the poller's readable callback: it leaves on op the first
// datagram that answers op.query. The read buffer is leased only inside
// it, and it drains every queued datagram until one answers or the socket
// would block; the buffer goes back before the exchange parks again, so a
// parked exchange holds no buffer. Unpack keeps no byte of the buffer, so
// the reply never aliases it. Datagrams that keep arriving and never
// answer still end the wait at the deadline.
func (op *exchangeOp) readReply(fd uintptr) bool {
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
			op.err = os.NewSyscallError("read", err)
			return true
		}
		if resp, ok := answers(op.query, buf[:n]); ok {
			op.resp = resp
			return true
		}
		if !time.Now().Before(op.deadline) {
			op.err = os.ErrDeadlineExceeded
			return true
		}
	}
}
