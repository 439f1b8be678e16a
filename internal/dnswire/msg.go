package dnswire

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
)

// Message is a complete DNS message: header flags plus the four sections.
type Message struct {
	ID     uint16
	Flags  Flags
	RCode  RCode
	Opcode Opcode

	Question   []Question
	Answer     []RR
	Authority  []RR
	Additional []RR
}

// Flags holds the single-bit header flags of a DNS message.
type Flags struct {
	Response           bool // QR
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	AuthenticData      bool // AD
	CheckingDisabled   bool // CD
}

// MaxUDPPayload is the classic maximum DNS-over-UDP message size.
const MaxUDPPayload = 512

// headerLen is the fixed size of a DNS message header.
const headerLen = 12

var (
	// ErrTruncatedMessage reports a message shorter than its header claims.
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	// ErrCompressionLoop reports a compression-pointer cycle.
	ErrCompressionLoop = errors.New("dnswire: compression pointer loop")
	// ErrTrailingBytes reports unconsumed bytes after the last section.
	ErrTrailingBytes = errors.New("dnswire: trailing bytes after message")
)

// NewQuery builds a standard query message for one question.
func NewQuery(id uint16, name Name, qtype Type) *Message {
	return &Message{
		ID:       id,
		Question: []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}

// EchoesQuestion reports whether resp echoes query's question section:
// the response's first question must match the query's (qname, qtype,
// qclass) exactly. A matching 16-bit ID alone leaves a 1-in-65536
// off-path spoofing window per guess; requiring the question echo forces
// an attacker to also know which name is being resolved. Responses that
// carry no question section at all are rejected. Names are canonical
// (lower-case) on both sides, so comparison is exact. A query with no
// question trivially matches.
func EchoesQuestion(query, resp *Message) bool {
	if len(query.Question) == 0 {
		return true
	}
	if len(resp.Question) == 0 {
		return false
	}
	q, r := query.Question[0], resp.Question[0]
	return q.Name == r.Name && q.Type == r.Type && q.Class == r.Class
}

// Reply builds a skeleton response to q, echoing its ID and question and
// setting the QR bit.
func (m *Message) Reply() *Message {
	r := &Message{
		ID:     m.ID,
		Opcode: m.Opcode,
		Flags: Flags{
			Response:         true,
			RecursionDesired: m.Flags.RecursionDesired,
		},
	}
	r.Question = append(r.Question, m.Question...)
	return r
}

// String renders the message in a dig-like textual form, for logs and
// examples.
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ";; id=%d opcode=%s rcode=%s", m.ID, m.Opcode, m.RCode)
	if m.Flags.Response {
		b.WriteString(" qr")
	}
	if m.Flags.Authoritative {
		b.WriteString(" aa")
	}
	if m.Flags.Truncated {
		b.WriteString(" tc")
	}
	if m.Flags.RecursionDesired {
		b.WriteString(" rd")
	}
	if m.Flags.RecursionAvailable {
		b.WriteString(" ra")
	}
	b.WriteString("\n")
	for _, q := range m.Question {
		fmt.Fprintf(&b, ";%s\n", q)
	}
	writeSection := func(label string, rrs []RR) {
		if len(rrs) == 0 {
			return
		}
		fmt.Fprintf(&b, ";; %s:\n", label)
		for _, rr := range rrs {
			fmt.Fprintf(&b, "%s\n", rr)
		}
	}
	writeSection("ANSWER", m.Answer)
	writeSection("AUTHORITY", m.Authority)
	writeSection("ADDITIONAL", m.Additional)
	return b.String()
}

// TruncatedCopy returns a copy of the message with the record sections
// dropped and the TC bit set, for serving over size-limited UDP (the
// client retries over TCP). OPT pseudo-records survive the truncation:
// RFC 6891 §7 requires a response to an EDNS0 query to remain an EDNS0
// response even when truncated.
func (m *Message) TruncatedCopy() *Message {
	t := &Message{
		ID:     m.ID,
		Flags:  m.Flags,
		RCode:  m.RCode,
		Opcode: m.Opcode,
	}
	t.Flags.Truncated = true
	t.Question = append(t.Question, m.Question...)
	for _, rr := range m.Additional {
		if rr.Type() == TypeOPT {
			t.Additional = append(t.Additional, rr)
		}
	}
	return t
}

// Packer accumulates the wire encoding of messages and tracks name
// compression targets. A Packer is reusable: Reset (or Pack, which
// resets implicitly) clears the output and compression state while
// keeping the allocated buffer and map, so a long-lived Packer encodes
// messages without steady-state allocation. The zero value is ready to
// use. A Packer must not be used concurrently.
type Packer struct {
	buf []byte
	// base is the offset in buf where the current message starts;
	// compression pointers are relative to it (AppendPack may start
	// mid-buffer, e.g. after a TCP length prefix).
	base int
	// ptr maps a canonical name to the message-relative offset of its
	// first occurrence.
	ptr map[Name]int
	// noCompress disables pointer emission entirely (DNSSEC canonical
	// form, RFC 4034 §6.2).
	noCompress bool
}

// Reset discards the accumulated output and compression state, keeping
// the buffer and map capacity for reuse.
func (p *Packer) Reset() {
	p.buf = p.buf[:0]
	p.base = 0
	clear(p.ptr)
}

// Pack resets the Packer and encodes m into its internal buffer. The
// returned slice is owned by the Packer and valid only until the next
// Pack or Reset call; callers that need the bytes beyond that must copy.
func (p *Packer) Pack(m *Message) ([]byte, error) {
	p.Reset()
	if err := p.pack(m); err != nil {
		return nil, err
	}
	return p.buf, nil
}

// packerPool recycles the compression state behind Message.AppendPack so
// the convenience API allocates nothing beyond the caller's destination
// buffer in steady state.
var packerPool = sync.Pool{New: func() any { return new(Packer) }}

func (p *Packer) appendUint16(v uint16) {
	p.buf = append(p.buf, byte(v>>8), byte(v))
}

func (p *Packer) appendUint32(v uint32) {
	p.buf = append(p.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// appendCompressedName appends n, using a compression pointer when a
// suffix of n has already been written, and recording new suffixes.
// Suffixes are substrings of the canonical name, so tracking them
// allocates no memory beyond the map itself.
func (p *Packer) appendCompressedName(n Name) error {
	if n == "" {
		return errors.New("dnswire: empty name")
	}
	if p.noCompress {
		var err error
		p.buf, err = appendName(p.buf, n)
		return err
	}
	s := string(n)
	for start := 0; start < len(s); {
		suffix := n[start:]
		if suffix == Root {
			break // the root's empty name is never a compression target
		}
		off, ok := p.ptr[suffix]
		if ok && off <= 0x3FFF {
			p.appendUint16(0xC000 | uint16(off))
			return nil
		}
		if !ok {
			if p.ptr == nil {
				p.ptr = make(map[Name]int)
			}
			p.ptr[suffix] = len(p.buf) - p.base
		}
		var label string
		if dot := strings.IndexByte(s[start:], '.'); dot < 0 {
			label = s[start:]
			start = len(s)
		} else {
			label = s[start : start+dot]
			start += dot + 1
		}
		if len(label) > MaxLabelLen {
			return ErrLabelTooLong
		}
		p.buf = append(p.buf, byte(len(label)))
		p.buf = append(p.buf, label...)
	}
	p.buf = append(p.buf, 0)
	return nil
}

// appendUncompressedName appends n without using or creating pointers
// (required for RDATA of types not covered by RFC 1035 compression rules).
func (p *Packer) appendUncompressedName(n Name) error {
	var err error
	p.buf, err = appendName(p.buf, n)
	return err
}

// Pack encodes the message into wire format with name compression. The
// returned buffer is freshly allocated and owned by the caller; hot
// paths that can recycle buffers should prefer AppendPack or a reused
// Packer.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack appends the wire encoding of m to dst and returns the
// extended slice (reallocated if dst lacks capacity, like append).
// Compression pointers are relative to len(dst), so a caller may pack
// after a prefix — e.g. the TCP two-byte length — in the same buffer.
// The packing scratch state is pooled; steady-state callers that pass a
// recycled dst allocate nothing.
func (m *Message) AppendPack(dst []byte) ([]byte, error) {
	p := packerPool.Get().(*Packer)
	p.buf = dst
	p.base = len(dst)
	err := p.pack(m)
	out := p.buf
	// Drop the buffer reference (it belongs to the caller) and clear the
	// compression map (its keys are substrings of m's names) before
	// pooling the scratch state.
	p.buf = nil
	p.base = 0
	clear(p.ptr)
	packerPool.Put(p)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// pack appends the wire encoding of one message to p.buf, with p.base
// already marking the message start.
func (p *Packer) pack(m *Message) error {
	p.appendUint16(m.ID)

	var flags uint16
	if m.Flags.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Flags.Authoritative {
		flags |= 1 << 10
	}
	if m.Flags.Truncated {
		flags |= 1 << 9
	}
	if m.Flags.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Flags.RecursionAvailable {
		flags |= 1 << 7
	}
	if m.Flags.AuthenticData {
		flags |= 1 << 5
	}
	if m.Flags.CheckingDisabled {
		flags |= 1 << 4
	}
	flags |= uint16(m.RCode & 0xF)
	p.appendUint16(flags)

	for _, n := range []int{len(m.Question), len(m.Answer), len(m.Authority), len(m.Additional)} {
		if n > 0xFFFF {
			return errors.New("dnswire: section too large")
		}
		p.appendUint16(uint16(n))
	}

	for _, q := range m.Question {
		if err := p.appendCompressedName(q.Name); err != nil {
			return fmt.Errorf("packing question %s: %w", q.Name, err)
		}
		p.appendUint16(uint16(q.Type))
		p.appendUint16(uint16(q.Class))
	}
	for _, section := range [][]RR{m.Answer, m.Authority, m.Additional} {
		for _, rr := range section {
			if err := p.appendRR(rr); err != nil {
				return fmt.Errorf("packing %s %s: %w", rr.Name, rr.Type(), err)
			}
		}
	}
	return nil
}

func (p *Packer) appendRR(rr RR) error {
	if rr.Data == nil {
		return errors.New("dnswire: RR with nil data")
	}
	if err := p.appendCompressedName(rr.Name); err != nil {
		return err
	}
	p.appendUint16(uint16(rr.Type()))
	p.appendUint16(uint16(rr.Class))
	p.appendUint32(rr.TTL)
	// Reserve RDLENGTH, fill after encoding RDATA.
	lenOff := len(p.buf)
	p.appendUint16(0)
	if err := rr.Data.appendTo(p); err != nil {
		return err
	}
	rdlen := len(p.buf) - lenOff - 2
	if rdlen > 0xFFFF {
		return errors.New("dnswire: RDATA too long")
	}
	p.buf[lenOff] = byte(rdlen >> 8)
	p.buf[lenOff+1] = byte(rdlen)
	return nil
}

// nameCacheSize bounds the per-message decoded-name cache. Messages
// rarely carry more distinct names than this; past the bound, names
// still decode correctly, just without reuse.
const nameCacheSize = 24

// unpacker walks a wire-format message. It is used by value on the
// stack; msg is the unpacker's private arena copy of the wire, from
// which the decoded Message's byte-slice fields are sliced directly.
type unpacker struct {
	msg []byte
	off int

	// nameBuf is the scratch the decoder lowercases labels into before
	// the single string conversion that builds each Name; it lives in
	// the (stack-allocated) unpacker so decoding allocates nothing
	// beyond the resulting string.
	nameBuf [MaxNameWireLen]byte

	// names caches decoded names by the offset of their encoding, so a
	// name reached again through a compression pointer (an RR owner
	// pointing at the question, NS targets sharing a zone suffix) is
	// returned without re-decoding or re-allocating.
	names  [nameCacheSize]cachedName
	nNames int
}

type cachedName struct {
	off  int32
	end  int32 // offset just past the encoding at off; 0 = pointer-target entry
	name Name
}

func (u *unpacker) uint16() (uint16, error) {
	if u.off+2 > len(u.msg) {
		return 0, ErrTruncatedMessage
	}
	v := uint16(u.msg[u.off])<<8 | uint16(u.msg[u.off+1])
	u.off += 2
	return v, nil
}

func (u *unpacker) uint32() (uint32, error) {
	if u.off+4 > len(u.msg) {
		return 0, ErrTruncatedMessage
	}
	v := uint32(u.msg[u.off])<<24 | uint32(u.msg[u.off+1])<<16 |
		uint32(u.msg[u.off+2])<<8 | uint32(u.msg[u.off+3])
	u.off += 4
	return v, nil
}

// cachedAt returns the already-decoded name whose encoding starts at off.
func (u *unpacker) cachedAt(off int) (Name, bool) {
	for i := 0; i < u.nNames; i++ {
		if u.names[i].off == int32(off) {
			return u.names[i].name, true
		}
	}
	return "", false
}

func (u *unpacker) cacheName(off, end int, n Name) {
	if u.nNames < nameCacheSize {
		u.names[u.nNames] = cachedName{off: int32(off), end: int32(end), name: n}
		u.nNames++
	}
}

// name decodes a possibly-compressed name starting at the current offset.
func (u *unpacker) name() (Name, error) {
	start := u.off
	for i := 0; i < u.nNames; i++ {
		if c := &u.names[i]; c.off == int32(start) && c.end > 0 {
			u.off = int(c.end)
			return c.name, nil
		}
	}
	n, end, err := u.decodeNameAt(start)
	if err != nil {
		return "", err
	}
	u.off = end
	u.cacheName(start, end, n)
	// When the encoding is a bare compression pointer, the same target
	// is typically referenced again (repeated RR owners); cache it under
	// the target offset too so those later references hit.
	if b := u.msg[start]; b&0xC0 == 0xC0 && end == start+2 {
		target := int(b&0x3F)<<8 | int(u.msg[start+1])
		if _, ok := u.cachedAt(target); !ok {
			u.cacheName(target, 0, n)
		}
	}
	return n, nil
}

// decodeNameAt decodes the name at start, following compression
// pointers, lowercasing and validating labels in place. It returns the
// canonical name and the offset just past the name's first encoding.
// The one allocation is the resulting string.
func (u *unpacker) decodeNameAt(start int) (Name, int, error) {
	msg := u.msg
	buf := u.nameBuf[:0]
	off := start
	ptrBudget := len(msg) // any longer chain must contain a loop
	end := -1             // offset after the name at the original position
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedMessage
		}
		b := msg[off]
		switch {
		case b == 0:
			if end < 0 {
				end = off + 1
			}
			if len(buf) == 0 {
				return Root, end, nil
			}
			return Name(buf), end, nil
		case b&0xC0 == 0xC0:
			if off+2 > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			if end < 0 {
				end = off + 2
			}
			target := int(b&0x3F)<<8 | int(msg[off+1])
			if target >= off {
				return "", 0, fmt.Errorf("%w: forward pointer", ErrCompressionLoop)
			}
			// A cached name at the target finishes the decode: append
			// would just re-walk bytes that produced it.
			if tail, ok := u.cachedAt(target); ok {
				if len(buf)+len(tail) > MaxNameWireLen-1 {
					// string(buf), not buf: a slice of nameBuf handed to
					// fmt would move every unpacker to the heap.
					return "", 0, fmt.Errorf("%w: %q", ErrNameTooLong, string(buf))
				}
				if len(buf) == 0 {
					return tail, end, nil
				}
				if !tail.IsRoot() {
					buf = append(buf, tail...)
				}
				return Name(buf), end, nil
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return "", 0, ErrCompressionLoop
			}
			off = target
		case b&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type 0x%02x", b&0xC0)
		default:
			l := int(b)
			if off+1+l > len(msg) {
				return "", 0, ErrTruncatedMessage
			}
			// One pass per label: lowercase, validate, and copy. The
			// wire bound (len ≤ 63) already enforces MaxLabelLen.
			if len(buf)+l+1 > MaxNameWireLen-1 {
				return "", 0, fmt.Errorf("%w: %q", ErrNameTooLong, msg[off+1:off+1+l])
			}
			for _, c := range msg[off+1 : off+1+l] {
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				if !labelCharOK(c) {
					return "", 0, fmt.Errorf("%w: %q", ErrBadLabel, msg[off+1:off+1+l])
				}
				buf = append(buf, c)
			}
			buf = append(buf, '.')
			off += 1 + l
		}
	}
}

// decodeName decodes a name at off in msg, following compression pointers.
// It returns the name and the offset just past the name's first encoding.
func decodeName(msg []byte, off int) (Name, int, error) {
	u := unpacker{msg: msg}
	return u.decodeNameAt(off)
}

// Header is a decoded DNS message header, the 12 fixed bytes every
// message starts with. It lets a server classify a packet (query vs
// response, opcode, ID to echo) even when the rest fails to parse.
type Header struct {
	ID     uint16
	Flags  Flags
	Opcode Opcode
	RCode  RCode
}

// UnpackHeader decodes just the fixed header of a wire-format message.
// It fails only when b is shorter than the 12-byte header.
func UnpackHeader(b []byte) (Header, error) {
	if len(b) < headerLen {
		return Header{}, fmt.Errorf("%w: %d-byte header", ErrTruncatedMessage, len(b))
	}
	var h Header
	h.ID = uint16(b[0])<<8 | uint16(b[1])
	flags := uint16(b[2])<<8 | uint16(b[3])
	h.Flags, h.Opcode, h.RCode = decodeFlags(flags)
	return h, nil
}

// decodeFlags splits the header's second 16-bit word into its flag bits,
// opcode, and rcode.
func decodeFlags(flags uint16) (Flags, Opcode, RCode) {
	var f Flags
	f.Response = flags&(1<<15) != 0
	f.Authoritative = flags&(1<<10) != 0
	f.Truncated = flags&(1<<9) != 0
	f.RecursionDesired = flags&(1<<8) != 0
	f.RecursionAvailable = flags&(1<<7) != 0
	f.AuthenticData = flags&(1<<5) != 0
	f.CheckingDisabled = flags&(1<<4) != 0
	return f, Opcode(flags >> 11 & 0xF), RCode(flags & 0xF)
}

// sectionCap bounds a section's preallocation by what the remaining
// bytes could possibly hold (minBytes per entry), so a forged count in a
// short packet cannot force a huge allocation before parsing fails.
func sectionCap(count uint16, remaining, minBytes int) int {
	if c := remaining / minBytes; int(count) > c {
		return c
	}
	return int(count)
}

// Unpack decodes a wire-format DNS message.
//
// Ownership: the returned Message owns all of its data. Unpack makes
// exactly one private copy of the wire; every byte-slice RData field
// (OPT options, DNSSEC key/digest/signature material, Unknown raw
// payloads) is sliced from that copy rather than copied again, and
// every Name is a freshly built string. The caller may therefore reuse
// or recycle b — including returning a pooled read buffer — the moment
// Unpack returns, and the Message stays valid for as long as any of its
// records are retained (each retained slice keeps the one backing copy
// alive).
func Unpack(b []byte) (*Message, error) {
	u := unpacker{msg: append([]byte(nil), b...)}
	m := &Message{}

	var err error
	if m.ID, err = u.uint16(); err != nil {
		return nil, err
	}
	flags, err := u.uint16()
	if err != nil {
		return nil, err
	}
	m.Flags, m.Opcode, m.RCode = decodeFlags(flags)

	var counts [4]uint16
	for i := range counts {
		if counts[i], err = u.uint16(); err != nil {
			return nil, err
		}
	}

	if counts[0] > 0 {
		// Smallest question: 1-byte root name + type + class.
		m.Question = make([]Question, 0, sectionCap(counts[0], len(u.msg)-u.off, 5))
	}
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = u.name(); err != nil {
			return nil, fmt.Errorf("question %d: %w", i, err)
		}
		t, err := u.uint16()
		if err != nil {
			return nil, err
		}
		c, err := u.uint16()
		if err != nil {
			return nil, err
		}
		q.Type, q.Class = Type(t), Class(c)
		m.Question = append(m.Question, q)
	}

	sections := [3]*[]RR{&m.Answer, &m.Authority, &m.Additional}
	for si, dst := range sections {
		if counts[si+1] == 0 {
			continue
		}
		// Smallest RR: 1-byte name + fixed 10-byte body, empty RDATA.
		*dst = make([]RR, 0, sectionCap(counts[si+1], len(u.msg)-u.off, 11))
		for i := 0; i < int(counts[si+1]); i++ {
			rr, err := u.rr()
			if err != nil {
				return nil, fmt.Errorf("section %d record %d: %w", si+1, i, err)
			}
			*dst = append(*dst, rr)
		}
	}
	if u.off != len(u.msg) {
		return nil, fmt.Errorf("%w: %d bytes", ErrTrailingBytes, len(u.msg)-u.off)
	}
	return m, nil
}

func (u *unpacker) rr() (RR, error) {
	var rr RR
	name, err := u.name()
	if err != nil {
		return rr, err
	}
	rr.Name = name
	t, err := u.uint16()
	if err != nil {
		return rr, err
	}
	c, err := u.uint16()
	if err != nil {
		return rr, err
	}
	rr.Class = Class(c)
	ttl, err := u.uint32()
	if err != nil {
		return rr, err
	}
	rr.TTL = ttl
	rdlen, err := u.uint16()
	if err != nil {
		return rr, err
	}
	if u.off+int(rdlen) > len(u.msg) {
		return rr, ErrTruncatedMessage
	}
	rdEnd := u.off + int(rdlen)
	rr.Data, err = u.rdata(Type(t), rdEnd)
	if err != nil {
		return rr, err
	}
	if u.off != rdEnd {
		return rr, fmt.Errorf("dnswire: RDATA length mismatch for %s", Type(t))
	}
	return rr, nil
}

// arena returns the RDATA bytes from the current offset to rdEnd as a
// capacity-clamped slice of the unpacker's private wire copy — the
// zero-copy half of the ownership contract documented on Unpack. An
// empty range returns nil so round-tripped records compare equal to
// their hand-built forms.
func (u *unpacker) arena(rdEnd int) []byte {
	if u.off == rdEnd {
		return nil
	}
	return u.msg[u.off:rdEnd:rdEnd]
}

func (u *unpacker) rdata(t Type, rdEnd int) (RData, error) {
	switch t {
	case TypeA:
		if rdEnd-u.off != 4 {
			return nil, fmt.Errorf("dnswire: A RDATA of length %d", rdEnd-u.off)
		}
		var v4 [4]byte
		copy(v4[:], u.msg[u.off:rdEnd])
		u.off = rdEnd
		return A{Addr: netip.AddrFrom4(v4)}, nil
	case TypeAAAA:
		if rdEnd-u.off != 16 {
			return nil, fmt.Errorf("dnswire: AAAA RDATA of length %d", rdEnd-u.off)
		}
		var v6 [16]byte
		copy(v6[:], u.msg[u.off:rdEnd])
		u.off = rdEnd
		return AAAA{Addr: netip.AddrFrom16(v6)}, nil
	case TypeNS:
		n, err := u.name()
		return NS{Host: n}, err
	case TypeCNAME:
		n, err := u.name()
		return CNAME{Target: n}, err
	case TypePTR:
		n, err := u.name()
		return PTR{Target: n}, err
	case TypeSOA:
		var s SOA
		var err error
		if s.MName, err = u.name(); err != nil {
			return nil, err
		}
		if s.RName, err = u.name(); err != nil {
			return nil, err
		}
		for _, dst := range []*uint32{&s.Serial, &s.Refresh, &s.Retry, &s.Expire, &s.Minimum} {
			if *dst, err = u.uint32(); err != nil {
				return nil, err
			}
		}
		return s, nil
	case TypeMX:
		pref, err := u.uint16()
		if err != nil {
			return nil, err
		}
		host, err := u.name()
		if err != nil {
			return nil, err
		}
		return MX{Preference: pref, Host: host}, nil
	case TypeTXT:
		var t TXT
		for u.off < rdEnd {
			l := int(u.msg[u.off])
			if u.off+1+l > rdEnd {
				return nil, ErrTruncatedMessage
			}
			t.Strings = append(t.Strings, string(u.msg[u.off+1:u.off+1+l]))
			u.off += 1 + l
		}
		if len(t.Strings) == 0 {
			return nil, errors.New("dnswire: empty TXT RDATA")
		}
		return t, nil
	case TypeSRV:
		var s SRV
		var err error
		if s.Priority, err = u.uint16(); err != nil {
			return nil, err
		}
		if s.Weight, err = u.uint16(); err != nil {
			return nil, err
		}
		if s.Port, err = u.uint16(); err != nil {
			return nil, err
		}
		if s.Target, err = u.name(); err != nil {
			return nil, err
		}
		return s, nil
	case TypeOPT:
		o := OPT{Options: u.arena(rdEnd)}
		u.off = rdEnd
		return o, nil
	case TypeDNSKEY:
		var k DNSKEY
		var err error
		if k.Flags, err = u.uint16(); err != nil {
			return nil, err
		}
		if u.off+2 > rdEnd {
			return nil, ErrTruncatedMessage
		}
		k.Protocol = u.msg[u.off]
		k.Algorithm = u.msg[u.off+1]
		u.off += 2
		k.PublicKey = u.arena(rdEnd)
		u.off = rdEnd
		return k, nil
	case TypeDS:
		var d DS
		var err error
		if d.KeyTag, err = u.uint16(); err != nil {
			return nil, err
		}
		if u.off+2 > rdEnd {
			return nil, ErrTruncatedMessage
		}
		d.Algorithm = u.msg[u.off]
		d.DigestType = u.msg[u.off+1]
		u.off += 2
		d.Digest = u.arena(rdEnd)
		u.off = rdEnd
		return d, nil
	case TypeRRSIG:
		var s RRSIG
		tc, err := u.uint16()
		if err != nil {
			return nil, err
		}
		s.TypeCovered = Type(tc)
		if u.off+2 > rdEnd {
			return nil, ErrTruncatedMessage
		}
		s.Algorithm = u.msg[u.off]
		s.Labels = u.msg[u.off+1]
		u.off += 2
		for _, dst := range []*uint32{&s.OrigTTL, &s.Expiration, &s.Inception} {
			if *dst, err = u.uint32(); err != nil {
				return nil, err
			}
		}
		if s.KeyTag, err = u.uint16(); err != nil {
			return nil, err
		}
		if s.SignerName, err = u.name(); err != nil {
			return nil, err
		}
		if u.off > rdEnd {
			return nil, ErrTruncatedMessage
		}
		s.Signature = u.arena(rdEnd)
		u.off = rdEnd
		return s, nil
	default:
		raw := Unknown{TypeCode: t, Raw: u.arena(rdEnd)}
		u.off = rdEnd
		return raw, nil
	}
}
