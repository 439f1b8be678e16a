// Package persist implements crash-safe on-disk persistence for the
// caching server, so a crash, OOM-kill, or redeploy during an attack does
// not reset the cache to vanilla-DNS behaviour. The paper's whole defense
// is cached state: infrastructure RRs surviving a root/TLD blackout. This
// package makes that state survive the process.
//
// The store is a classic snapshot + journal pair in one directory, and
// both files are the same thing — a header and a list of records, read by
// one decoder and folded by one function:
//
//   - snapshot.dat — a periodic full dump of the cache (live and stale
//     entries), renewal credit, and upstream selection state. Written to a
//     temp file, fsynced, and atomically renamed, so a crash mid-write
//     never damages the previous snapshot.
//   - journal.dat — an append-only log of cache deltas (Put/Extend/Evict)
//     since the snapshot, fed by the cache's OnChange hook and flushed on
//     a short interval. A crash loses at most one flush interval of
//     deltas.
//
// A snapshot is a journal whose deltas are all Put, plus the soft-state
// records; recovery applies the snapshot's records and then the journal's
// through the same switch.
//
// Both files carry a generation number. A journal is replayed only when
// its generation matches the snapshot's: each snapshot rotates the journal
// to its own generation, folding the old journal's contents into the
// snapshot (compaction). A crash between the two steps leaves a
// mismatched pair, and the stale journal is simply skipped — replaying it
// against the newer snapshot could rewind entries.
//
// Records are length-prefixed, CRC32-checksummed, and versioned; RRsets
// are encoded in DNS wire format via dnswire. Recovery is tolerant by
// construction: a torn or corrupt tail truncates the replay at the last
// good record and never aborts startup, and individual records that fail
// validation are dropped and counted.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"resilientdns/internal/cache"
	"resilientdns/internal/core"
	"resilientdns/internal/dnswire"
	"resilientdns/internal/transport"
)

// File format constants. The magic's trailing byte doubles as a coarse
// format version; formatVersion tracks record-level revisions within it.
const (
	magic         = "RDNSPST\x01"
	formatVersion = 1

	kindSnapshot byte = 1
	kindJournal  byte = 2

	// headerLen is the fixed file header: magic(8) + version(2) + kind(1)
	// + generation(8) + created-at unix-nanos(8).
	headerLen = 8 + 2 + 1 + 8 + 8

	// frameOverhead is the per-record framing: type(1) + length(4) +
	// crc32(4).
	frameOverhead = 1 + 4 + 4

	// maxRecordLen bounds one record's payload. A single RRset message
	// tops out at 64 KiB; anything larger is corruption, not data.
	maxRecordLen = 1 << 20
)

// Record types.
const (
	// recEntry is a full cache entry: every snapshot record, and the
	// journal's Put delta.
	recEntry byte = 1
	// recExtend is a journal delta: (key, new absolute expiry).
	recExtend byte = 2
	// recEvict is a journal delta: (key).
	recEvict byte = 3
	// recCredit is a snapshot-only record: (zone, renewal credit).
	recCredit byte = 4
	// recServer is a snapshot-only record: one upstream server's selection
	// state.
	recServer byte = 5
)

// carriedBy says which file kinds hold each record type, one bit per kind.
// A record met in a file of another kind is dropped and counted, as a
// record of unknown type is.
var carriedBy = [...]byte{
	recEntry:  1<<kindSnapshot | 1<<kindJournal,
	recExtend: 1 << kindJournal,
	recEvict:  1 << kindJournal,
	recCredit: 1 << kindSnapshot,
	recServer: 1 << kindSnapshot,
}

// errCorrupt reports a record that failed structural validation. Decoders
// return it (never panic) so recovery can drop the record and carry on.
var errCorrupt = errors.New("persist: corrupt record")

// record is one decoded record of a store file; typ says which fields are
// set.
type record struct {
	typ     byte
	entry   cache.RestoreEntry       // recEntry
	key     cache.Key                // recExtend, recEvict
	expires time.Time                // recExtend
	zone    dnswire.Name             // recCredit
	credit  float64                  // recCredit
	server  core.UpstreamServerState // recServer
}

// decodeRecord decodes one intact frame; an unknown record type is
// corrupt.
func decodeRecord(f frame) (rec record, err error) {
	rec.typ = f.typ
	switch f.typ {
	case recEntry:
		rec.entry, err = decodeEntry(f.payload)
	case recExtend:
		rec.key, rec.expires, err = decodeExtend(f.payload)
	case recEvict:
		rec.key, err = decodeEvict(f.payload)
	case recCredit:
		rec.zone, rec.credit, err = decodeCredit(f.payload)
	case recServer:
		rec.server, err = decodeServer(f.payload)
	default:
		err = errCorrupt
	}
	return rec, err
}

// fileData is a decoded store file, snapshot or journal.
type fileData struct {
	gen      uint64
	torn     bool
	unusable bool // header unreadable or of the other kind: treat as absent
	dropped  int  // records that failed decoding or do not belong in this kind
	recs     []record
}

// parseFile decodes the bytes of a store file of the given kind; it never
// fails, only degrades (unusable header, dropped records, torn tail).
func parseFile(b []byte, kind byte) *fileData {
	h, off, err := parseHeader(b)
	if err != nil || h.Kind != kind {
		return &fileData{unusable: true}
	}
	frames, torn := readFrames(b[off:])
	data := &fileData{gen: h.Generation, torn: torn}
	for _, f := range frames {
		rec, err := decodeRecord(f)
		// An unknown type has failed already, so f.typ indexes the table.
		if err != nil || carriedBy[f.typ]&(1<<kind) == 0 {
			data.dropped++ // skip, keep the rest
			continue
		}
		data.recs = append(data.recs, rec)
	}
	return data
}

// fileHeader describes a store file.
type fileHeader struct {
	Kind       byte
	Generation uint64
	CreatedAt  time.Time
}

// appendHeader serialises a file header.
func appendHeader(b []byte, h fileHeader) []byte {
	b = append(b, magic...)
	b = binary.BigEndian.AppendUint16(b, formatVersion)
	b = append(b, h.Kind)
	b = binary.BigEndian.AppendUint64(b, h.Generation)
	b = binary.BigEndian.AppendUint64(b, uint64(h.CreatedAt.UnixNano()))
	return b
}

// parseHeader reads a file header, returning the offset of the first
// record.
func parseHeader(b []byte) (fileHeader, int, error) {
	if len(b) < headerLen {
		return fileHeader{}, 0, fmt.Errorf("%w: short header", errCorrupt)
	}
	if string(b[:8]) != magic {
		return fileHeader{}, 0, fmt.Errorf("%w: bad magic", errCorrupt)
	}
	if v := binary.BigEndian.Uint16(b[8:10]); v != formatVersion {
		return fileHeader{}, 0, fmt.Errorf("persist: unsupported format version %d", v)
	}
	h := fileHeader{
		Kind:       b[10],
		Generation: binary.BigEndian.Uint64(b[11:19]),
		CreatedAt:  time.Unix(0, int64(binary.BigEndian.Uint64(b[19:27]))),
	}
	if h.Kind != kindSnapshot && h.Kind != kindJournal {
		return fileHeader{}, 0, fmt.Errorf("%w: unknown file kind %d", errCorrupt, h.Kind)
	}
	return h, headerLen, nil
}

// appendFrame wraps one record payload in the length+checksum framing.
func appendFrame(b []byte, typ byte, payload []byte) []byte {
	b = append(b, typ)
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// frame is one raw record read back from a file.
type frame struct {
	typ     byte
	payload []byte
}

// readFrames parses consecutive frames from b. It returns the frames that
// were fully intact and whether the remainder was torn or corrupt (short
// frame, oversized length, or checksum mismatch). A torn tail is expected
// after a crash and must never abort recovery — the caller keeps what came
// before it and continues.
func readFrames(b []byte) (frames []frame, torn bool) {
	off := 0
	for off < len(b) {
		if len(b)-off < frameOverhead {
			return frames, true
		}
		typ := b[off]
		n := int(binary.BigEndian.Uint32(b[off+1 : off+5]))
		sum := binary.BigEndian.Uint32(b[off+5 : off+9])
		if n > maxRecordLen || len(b)-off-frameOverhead < n {
			return frames, true
		}
		payload := b[off+frameOverhead : off+frameOverhead+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return frames, true
		}
		frames = append(frames, frame{typ: typ, payload: payload})
		off += frameOverhead + n
	}
	return frames, false
}

// encodeEntry serialises a cache entry: credibility, flags, the original
// TTL, the expiry, the put time, and the RRset packed as a dnswire
// message (answer section only), so every RR type the resolver can cache
// round-trips through the same wire encoder the network path uses. The
// cache keeps no put time; its slot holds Expires − OrigTTL, when the
// entry was stored or last extended, and recovery ignores it, so store
// files keep one layout across versions. Times are written on now's wall
// clock (see wallExpiry).
func encodeEntry(e *cache.Entry, now time.Time) ([]byte, error) {
	msg := &dnswire.Message{Answer: e.RRs}
	wire, err := msg.Pack()
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 2+3*8+4+len(wire))
	b = append(b, byte(e.Cred()))
	var flags byte
	if e.Infra() {
		flags |= 1
	}
	if e.Origin() == cache.OriginPeer {
		flags |= 2
	}
	b = append(b, flags)
	expires := wallExpiry(e, now)
	b = binary.BigEndian.AppendUint64(b, uint64(e.OrigTTL()))
	b = binary.BigEndian.AppendUint64(b, uint64(expires.UnixNano()))
	b = binary.BigEndian.AppendUint64(b, uint64(expires.Add(-e.OrigTTL()).UnixNano()))
	b = binary.BigEndian.AppendUint32(b, uint32(len(wire)))
	return append(b, wire...), nil
}

// decodeEntry parses a recEntry payload. It validates that the RRset is
// non-empty and homogeneous (one owner, one type) so a corrupt record can
// never install a malformed cache entry.
func decodeEntry(b []byte) (cache.RestoreEntry, error) {
	var rec cache.RestoreEntry
	if len(b) < 2+3*8+4 {
		return rec, errCorrupt
	}
	rec.Cred = cache.Credibility(b[0])
	if rec.Cred < cache.CredReferral || rec.Cred > cache.CredAnswer {
		return rec, errCorrupt
	}
	rec.Infra = b[1]&1 != 0
	if b[1]&2 != 0 {
		// Flag bit 2 tags peer-learned data; absent in pre-mesh store
		// files, which therefore decode as OriginUpstream.
		rec.Origin = cache.OriginPeer
	}
	rec.OrigTTL = time.Duration(binary.BigEndian.Uint64(b[2:10]))
	rec.Expires = time.Unix(0, int64(binary.BigEndian.Uint64(b[10:18])))
	// b[18:26] is the put time, which nothing restores.
	n := int(binary.BigEndian.Uint32(b[26:30]))
	if n < 0 || len(b)-30 != n {
		return rec, errCorrupt
	}
	msg, err := dnswire.Unpack(b[30:])
	if err != nil {
		return rec, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if len(msg.Answer) == 0 {
		return rec, errCorrupt
	}
	name, typ := msg.Answer[0].Name, msg.Answer[0].Type()
	for _, rr := range msg.Answer {
		if rr.Name != name || rr.Type() != typ {
			return rec, errCorrupt
		}
	}
	rec.RRs = msg.Answer
	return rec, nil
}

// appendKey serialises a cache key as (name length, name, type).
func appendKey(b []byte, key cache.Key) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(key.Name)))
	b = append(b, key.Name...)
	return binary.BigEndian.AppendUint16(b, uint16(key.Type))
}

// decodeKey parses a key and returns the remaining bytes. The name is
// re-canonicalised so a corrupt record cannot install an invalid key.
func decodeKey(b []byte) (cache.Key, []byte, error) {
	if len(b) < 2 {
		return cache.Key{}, nil, errCorrupt
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	if len(b) < 2+n+2 {
		return cache.Key{}, nil, errCorrupt
	}
	name, err := dnswire.CanonicalName(string(b[2 : 2+n]))
	if err != nil {
		return cache.Key{}, nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	typ := dnswire.Type(binary.BigEndian.Uint16(b[2+n : 4+n]))
	return cache.Key{Name: name, Type: typ}, b[4+n:], nil
}

// wallExpiry is e's expiry on now's wall clock: now plus the time e has
// left. Entry.Expires counts from the instant the cache package first
// read the clock, so once the wall clock steps (NTP correcting a stale
// RTC) its wall reading is off by the step; the time left, a monotonic
// interval for real-clock times and exact for virtual ones, is not.
func wallExpiry(e *cache.Entry, now time.Time) time.Time {
	return now.Add(e.Expires().Sub(now))
}

// encodeExtend serialises a journal Extend delta.
func encodeExtend(key cache.Key, expires time.Time) []byte {
	b := appendKey(nil, key)
	return binary.BigEndian.AppendUint64(b, uint64(expires.UnixNano()))
}

// decodeExtend parses a recExtend payload.
func decodeExtend(b []byte) (cache.Key, time.Time, error) {
	key, rest, err := decodeKey(b)
	if err != nil {
		return cache.Key{}, time.Time{}, err
	}
	if len(rest) != 8 {
		return cache.Key{}, time.Time{}, errCorrupt
	}
	return key, time.Unix(0, int64(binary.BigEndian.Uint64(rest))), nil
}

// decodeEvict parses a recEvict payload.
func decodeEvict(b []byte) (cache.Key, error) {
	key, rest, err := decodeKey(b)
	if err != nil {
		return cache.Key{}, err
	}
	if len(rest) != 0 {
		return cache.Key{}, errCorrupt
	}
	return key, nil
}

// encodeCredit serialises one zone's renewal credit.
func encodeCredit(zone dnswire.Name, credit float64) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(zone)))
	b = append(b, zone...)
	return binary.BigEndian.AppendUint64(b, math.Float64bits(credit))
}

// decodeCredit parses a recCredit payload. Non-finite credit is corrupt:
// it would wedge the renewal scheduler's comparisons.
func decodeCredit(b []byte) (dnswire.Name, float64, error) {
	if len(b) < 2 {
		return "", 0, errCorrupt
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	if len(b) != 2+n+8 {
		return "", 0, errCorrupt
	}
	zone, err := dnswire.CanonicalName(string(b[2 : 2+n]))
	if err != nil {
		return "", 0, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	credit := math.Float64frombits(binary.BigEndian.Uint64(b[2+n:]))
	if math.IsNaN(credit) || math.IsInf(credit, 0) {
		return "", 0, errCorrupt
	}
	return zone, credit, nil
}

// encodeServer serialises one upstream server's selection state. A
// negative failure count is stored as 0, and a zero quarantine release
// time as 0 nanoseconds so it round-trips to the "not quarantined" zero
// time.
func encodeServer(s core.UpstreamServerState) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(len(s.Addr)))
	b = append(b, s.Addr...)
	b = binary.BigEndian.AppendUint64(b, uint64(s.SRTT))
	b = binary.BigEndian.AppendUint64(b, uint64(s.RTTVar))
	b = binary.BigEndian.AppendUint64(b, s.Samples)
	b = binary.BigEndian.AppendUint32(b, uint32(max(s.Fails, 0)))
	var quar uint64
	if !s.QuarantineUntil.IsZero() {
		quar = uint64(s.QuarantineUntil.UnixNano())
	}
	return binary.BigEndian.AppendUint64(b, quar)
}

// decodeServer parses a recServer payload.
func decodeServer(b []byte) (core.UpstreamServerState, error) {
	var s core.UpstreamServerState
	if len(b) < 2 {
		return s, errCorrupt
	}
	n := int(binary.BigEndian.Uint16(b[:2]))
	if n == 0 || len(b) != 2+n+3*8+4+8 {
		return s, errCorrupt
	}
	s.Addr = transport.Addr(b[2 : 2+n])
	rest := b[2+n:]
	s.SRTT = time.Duration(binary.BigEndian.Uint64(rest[0:8]))
	s.RTTVar = time.Duration(binary.BigEndian.Uint64(rest[8:16]))
	s.Samples = binary.BigEndian.Uint64(rest[16:24])
	s.Fails = int(binary.BigEndian.Uint32(rest[24:28]))
	if quar := binary.BigEndian.Uint64(rest[28:36]); quar != 0 {
		s.QuarantineUntil = time.Unix(0, int64(quar))
	}
	if s.SRTT < 0 || s.RTTVar < 0 {
		return s, errCorrupt
	}
	return s, nil
}
