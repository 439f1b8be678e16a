package dnswire

import "fmt"

// Type is a DNS resource record type code (RFC 1035 §3.2.2 and successors).
type Type uint16

// Record types implemented by this package.
const (
	TypeNone  Type = 0
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeSRV   Type = 33
	TypeOPT   Type = 41
	// TypeIXFR and TypeAXFR are the query-only zone-transfer types (RFC
	// 1995, RFC 5936). Nothing here answers them; see IsZoneTransfer.
	TypeIXFR Type = 251
	TypeAXFR Type = 252
	TypeANY  Type = 255
)

// IsZoneTransfer reports whether t asks for a zone transfer. No server in
// this repository performs one, and a cache must never relay one — a
// single small query would pull a whole zone from upstream and cache it —
// so every front door answers these REFUSED before any other work.
func (t Type) IsZoneTransfer() bool { return t == TypeAXFR || t == TypeIXFR }

var typeNames = map[Type]string{
	TypeNone:   "NONE",
	TypeA:      "A",
	TypeNS:     "NS",
	TypeCNAME:  "CNAME",
	TypeSOA:    "SOA",
	TypePTR:    "PTR",
	TypeMX:     "MX",
	TypeTXT:    "TXT",
	TypeAAAA:   "AAAA",
	TypeSRV:    "SRV",
	TypeOPT:    "OPT",
	TypeANY:    "ANY",
	TypeDS:     "DS",
	TypeRRSIG:  "RRSIG",
	TypeDNSKEY: "DNSKEY",
	TypeIXFR:   "IXFR",
	TypeAXFR:   "AXFR",
}

// String returns the mnemonic for t, or "TYPEn" for unknown codes.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// ParseType converts a mnemonic such as "A" or "NS" to a Type.
func ParseType(s string) (Type, error) {
	for t, name := range typeNames {
		if name == s {
			return t, nil
		}
	}
	return TypeNone, fmt.Errorf("dnswire: unknown RR type %q", s)
}

// Class is a DNS class code. Only IN is used in practice.
type Class uint16

// DNS classes.
const (
	ClassIN  Class = 1
	ClassCH  Class = 3
	ClassANY Class = 255
)

// String returns the mnemonic for c.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassCH:
		return "CH"
	case ClassANY:
		return "ANY"
	default:
		return fmt.Sprintf("CLASS%d", uint16(c))
	}
}

// Opcode is a DNS message opcode.
type Opcode uint8

// Opcodes.
const (
	OpcodeQuery  Opcode = 0
	OpcodeStatus Opcode = 2
	OpcodeNotify Opcode = 4
	OpcodeUpdate Opcode = 5
)

// String returns the mnemonic for o.
func (o Opcode) String() string {
	switch o {
	case OpcodeQuery:
		return "QUERY"
	case OpcodeStatus:
		return "STATUS"
	case OpcodeNotify:
		return "NOTIFY"
	case OpcodeUpdate:
		return "UPDATE"
	default:
		return fmt.Sprintf("OPCODE%d", uint8(o))
	}
}

// RCode is a DNS response code.
type RCode uint8

// Response codes (RFC 1035 §4.1.1).
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the mnemonic for r.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// Question is a DNS question section entry.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}
