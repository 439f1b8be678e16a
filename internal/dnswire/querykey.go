package dnswire

import (
	"encoding/binary"
	"errors"
)

// QueryKey probes wire for a plain query — one a server may answer from a
// reply it packed before, without unpacking the query — and appends the
// query's canonical key to dst. A plain query has QR=0, opcode QUERY, one
// question, no answer or authority records, and either no additional
// record or a single empty root OPT; its name is uncompressed and valid
// under Unpack's label rules, and nothing follows the last record.
//
// The key is the name in lower-case wire form, the type, the class, and
// one byte holding the RD bit (1) and whether an OPT was present (2):
// spellings of one question that differ only in case share a key. The
// advertised payload size is not part of it. ok implies that Unpack(wire)
// succeeds; !ok returns a nil key. Nothing is allocated when dst has room
// for the key (at most MaxNameWireLen+5 bytes).
func QueryKey(wire, dst []byte) (key []byte, id uint16, ok bool) {
	if len(wire) < headerLen+5 {
		return nil, 0, false
	}
	flags := binary.BigEndian.Uint16(wire[2:])
	if flags&(1<<15) != 0 || Opcode(flags>>11&0xF) != OpcodeQuery {
		return nil, 0, false
	}
	ar := binary.BigEndian.Uint16(wire[10:])
	if binary.BigEndian.Uint16(wire[4:]) != 1 || binary.BigEndian.Uint16(wire[6:]) != 0 ||
		binary.BigEndian.Uint16(wire[8:]) != 0 || ar > 1 {
		return nil, 0, false
	}
	key = dst
	off := headerLen
	for {
		if off >= len(wire) {
			return nil, 0, false
		}
		l := int(wire[off])
		if l == 0 {
			break
		}
		// A pointer or a reserved label type is not a plain label; the
		// length rule is decodeNameAt's.
		if l > MaxLabelLen || off+1+l > len(wire) || len(key)-len(dst)+l+1 > MaxNameWireLen-1 {
			return nil, 0, false
		}
		key = append(key, byte(l))
		for _, c := range wire[off+1 : off+1+l] {
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if !labelCharOK(c) {
				return nil, 0, false
			}
			key = append(key, c)
		}
		off += 1 + l
	}
	off++
	if off+4 > len(wire) {
		return nil, 0, false
	}
	key = append(append(key, 0), wire[off:off+4]...)
	off += 4
	var bits byte
	if flags&(1<<8) != 0 {
		bits |= 1
	}
	if ar == 1 {
		// The root name, TYPE OPT, any payload size and extended flags,
		// RDLENGTH 0.
		opt := wire[off:]
		if len(opt) != 11 || opt[0] != 0 || binary.BigEndian.Uint16(opt[1:]) != uint16(TypeOPT) ||
			binary.BigEndian.Uint16(opt[9:]) != 0 {
			return nil, 0, false
		}
		off += len(opt)
		bits |= 2
	}
	if off != len(wire) {
		return nil, 0, false
	}
	return append(key, bits), binary.BigEndian.Uint16(wire), true
}

// errBadReply reports a packed message AnswerTTLs cannot walk.
var errBadReply = errors.New("dnswire: malformed message")

// AnswerTTLs appends to dst the offset in wire of each answer record's
// TTL field, so that a reply packed once can be sent again with its TTLs
// rewritten in place. It reads what AppendPack wrote; it is not a parser
// for hostile input.
func AnswerTTLs(wire []byte, dst []int) ([]int, error) {
	if len(wire) < headerLen {
		return nil, errBadReply
	}
	qd, an := int(binary.BigEndian.Uint16(wire[4:])), int(binary.BigEndian.Uint16(wire[6:]))
	off := headerLen
	for i := 0; i < qd+an; i++ {
		// Skip the owner name: labels up to the root, or up to a pointer.
		for off < len(wire) && wire[off] != 0 && wire[off]&0xC0 != 0xC0 {
			off += 1 + int(wire[off])
		}
		if off < len(wire) && wire[off] != 0 {
			off++ // a pointer's second byte
		}
		off++
		if i < qd {
			off += 4 // type and class
			continue
		}
		if off+10 > len(wire) {
			return nil, errBadReply
		}
		dst = append(dst, off+4)
		off += 10 + int(binary.BigEndian.Uint16(wire[off+8:]))
	}
	if off > len(wire) {
		return nil, errBadReply
	}
	return dst, nil
}
