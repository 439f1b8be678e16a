// Package mesh lets multiple caching-server instances cooperate as one
// resilient fleet: a configured member list whose health each node
// learns from its own probes, rendezvous-hashed renewal ownership, IRR
// push gossip, and a peer-fetch fallback for zones whose authoritative
// servers are unreachable mid-attack.
//
// Every frame on the mesh port is authenticated with a truncated
// HMAC-SHA256 under the fleet's shared key and, beyond that, gated by a
// DNS-cookies-style source-address confirmation handshake: a request
// from a source that has not echoed the cookie we issued to it is
// answered only with a fixed-size challenge (never larger than the
// request), so the mesh port cannot be used as a reflection or
// amplification vector even by an attacker replaying captured frames.
package mesh

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"resilientdns/internal/dnswire"
)

// Frame types. Requests (Ping, IRRPush, FetchReq) are initiated by a
// peer and answered; responses (Ack, IRRAck, FetchResp) ride back on
// the same socket matched by sequence number. Challenge is the one
// frame sent to unconfirmed sources.
const (
	TPing      = 1 // liveness probe (payload empty)
	TAck       = 2 // probe response (payload empty)
	TChallenge = 3 // cookie handout for an unconfirmed source
	TIRRPush   = 4 // owner pushing a refreshed IRR set for one zone
	TIRRAck    = 5 // push acknowledged (payload empty)
	TFetchReq  = 6 // cache/stale answer request for a blacked-out zone
	TFetchResp = 7 // cache/stale answer (or SERVFAIL on miss)
)

const (
	frameMagic0 = 'R'
	frameMagic1 = 'M'
	// frameVersion is bumped on any wire-incompatible change; mixed
	// fleets with different versions simply fail the decode and drop.
	frameVersion = 2

	headerLen = 18 // magic(2) + ver(1) + type(1) + seq(4) + cookie(8) + paylen(2)
	macLen    = 16 // HMAC-SHA256 truncated; 128-bit tags are ample for an online forgery setting

	// MaxPayload bounds the payload so every frame fits comfortably in
	// one unfragmented UDP datagram alongside header and MAC.
	MaxPayload = 4096

	// MaxFrame is the largest encoded frame.
	MaxFrame = headerLen + MaxPayload + macLen
)

// Frame is one decoded mesh datagram.
type Frame struct {
	Type    byte
	Seq     uint32
	Cookie  uint64
	Payload []byte
}

// ErrBadFrame covers every decode failure: short datagram, bad magic,
// wrong version, length mismatch, or MAC verification failure. Callers
// drop the datagram silently either way, so the causes share one error.
var ErrBadFrame = errors.New("mesh: bad frame")

// EncodeFrame serialises and authenticates a frame under key.
func EncodeFrame(key []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("mesh: payload %d exceeds max %d", len(f.Payload), MaxPayload)
	}
	b := make([]byte, 0, headerLen+len(f.Payload)+macLen)
	b = append(b, frameMagic0, frameMagic1, frameVersion, f.Type)
	b = binary.BigEndian.AppendUint32(b, f.Seq)
	b = binary.BigEndian.AppendUint64(b, f.Cookie)
	b = binary.BigEndian.AppendUint16(b, uint16(len(f.Payload)))
	b = append(b, f.Payload...)
	mac := hmac.New(sha256.New, key)
	mac.Write(b)
	b = append(b, mac.Sum(nil)[:macLen]...)
	return b, nil
}

// DecodeFrame parses and authenticates a datagram. The returned payload
// aliases b.
func DecodeFrame(key, b []byte) (Frame, error) {
	if len(b) < headerLen+macLen {
		return Frame{}, ErrBadFrame
	}
	if b[0] != frameMagic0 || b[1] != frameMagic1 || b[2] != frameVersion {
		return Frame{}, ErrBadFrame
	}
	payLen := int(binary.BigEndian.Uint16(b[16:18]))
	if payLen > MaxPayload || len(b) != headerLen+payLen+macLen {
		return Frame{}, ErrBadFrame
	}
	body, tag := b[:headerLen+payLen], b[headerLen+payLen:]
	mac := hmac.New(sha256.New, key)
	mac.Write(body)
	if !hmac.Equal(tag, mac.Sum(nil)[:macLen]) {
		return Frame{}, ErrBadFrame
	}
	return Frame{
		Type:    b[3],
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Cookie:  binary.BigEndian.Uint64(b[8:16]),
		Payload: b[headerLen : headerLen+payLen],
	}, nil
}

// PeekTypeSeq reads a frame's type and sequence number without
// verifying the MAC. Transports use it to route datagrams between the
// response-matching path and the request handler; authentication still
// happens in DecodeFrame before any frame is acted on.
func PeekTypeSeq(b []byte) (typ byte, seq uint32, ok bool) {
	if len(b) < headerLen || b[0] != frameMagic0 || b[1] != frameMagic1 {
		return 0, 0, false
	}
	return b[3], binary.BigEndian.Uint32(b[4:8]), true
}

// IsResponseType reports whether typ is a frame type that answers a
// request (and is therefore matched to a pending call by sequence
// number rather than dispatched to the request handler).
func IsResponseType(typ byte) bool {
	switch typ {
	case TAck, TChallenge, TIRRAck, TFetchResp:
		return true
	}
	return false
}

// --- payload codecs ---
//
// Payloads use the same style as the persist store: length-prefixed
// strings, fixed-width big-endian integers, and dnswire-packed messages
// for anything DNS-shaped.

func appendString8(b []byte, s string) ([]byte, error) {
	if len(s) > 255 {
		return nil, fmt.Errorf("mesh: string %q too long", s)
	}
	b = append(b, byte(len(s)))
	return append(b, s...), nil
}

func readString8(b []byte) (string, []byte, error) {
	if len(b) < 1 || len(b) < 1+int(b[0]) {
		return "", nil, ErrBadFrame
	}
	n := int(b[0])
	return string(b[1 : 1+n]), b[1+n:], nil
}

// EncodeIRRPush serialises a zone name plus its dnswire-packed IRR set.
func EncodeIRRPush(zone dnswire.Name, msg *dnswire.Message) ([]byte, error) {
	wire, err := msg.Pack()
	if err != nil {
		return nil, err
	}
	if len(wire) > 0xffff {
		return nil, fmt.Errorf("mesh: IRR message too large (%d bytes)", len(wire))
	}
	b, err := appendString8(nil, zone.String())
	if err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(wire)))
	b = append(b, wire...)
	if len(b) > MaxPayload {
		return nil, fmt.Errorf("mesh: IRR push payload %d exceeds max %d", len(b), MaxPayload)
	}
	return b, nil
}

// DecodeIRRPush parses an IRRPush payload.
func DecodeIRRPush(b []byte) (dnswire.Name, *dnswire.Message, error) {
	s, b, err := readString8(b)
	if err != nil {
		return "", nil, err
	}
	zone, err := dnswire.CanonicalName(s)
	if err != nil {
		return "", nil, ErrBadFrame
	}
	if len(b) < 2 {
		return "", nil, ErrBadFrame
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) != 2+n {
		return "", nil, ErrBadFrame
	}
	msg, err := dnswire.Unpack(b[2 : 2+n])
	if err != nil {
		return "", nil, ErrBadFrame
	}
	return zone, msg, nil
}

// EncodeMsg serialises a dnswire message for FetchReq/FetchResp.
func EncodeMsg(msg *dnswire.Message) ([]byte, error) {
	wire, err := msg.Pack()
	if err != nil {
		return nil, err
	}
	if len(wire) > MaxPayload-2 {
		return nil, fmt.Errorf("mesh: message too large (%d bytes)", len(wire))
	}
	b := binary.BigEndian.AppendUint16(nil, uint16(len(wire)))
	return append(b, wire...), nil
}

// DecodeMsg parses a FetchReq/FetchResp payload.
func DecodeMsg(b []byte) (*dnswire.Message, error) {
	if len(b) < 2 {
		return nil, ErrBadFrame
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) != 2+n {
		return nil, ErrBadFrame
	}
	msg, err := dnswire.Unpack(b[2 : 2+n])
	if err != nil {
		return nil, ErrBadFrame
	}
	return msg, nil
}
