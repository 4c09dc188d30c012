package logs

import (
	"encoding/binary"
	"errors"
	"strings"
	"time"

	"github.com/elsa-hpc/elsa/internal/topology"
)

// Binary record payload: the encoding segment and socket frames carry
// (internal/ingest). Text stays the format of log files, stdin and
// String; this one exists so a reader gets a record back without parsing
// a timestamp, a severity name or a location code. All integers are
// big-endian or unsigned varints:
//
//	version    1 byte, BinaryVersion
//	seconds    8 bytes, Unix seconds (int64)
//	nanos      4 bytes, nanoseconds within the second (< 1e9)
//	severity   1 byte, Info (0) … Failure (4)
//	shape      1 byte: how much of the location follows (locSystem … locFlat)
//	location   locRack…locCard: rack, midplane, node card as zigzag
//	           varints, as deep as the shape goes; locCard adds the card
//	           kind byte, then slot and unit. locFlat: the host's length,
//	           a varint.
//	component  its length, a varint
//	strings    host, component and message bytes, back to back; the
//	           message runs to the end of the payload
//
// Seconds plus nanoseconds, not UnixNano: the int64 nanosecond count
// overflows outside 1678–2262 and so cannot carry every time ParseRecord
// accepts. The strings sit at the end so a decoder copies them out with
// one allocation.

// BinaryVersion is the first byte of every binary record payload.
const BinaryVersion = 1

// Location shapes: the granularity the payload names, mirroring the
// prefixes of the text location code.
const (
	locSystem = iota
	locRack
	locMidplane
	locNodeCard
	locCard
	locFlat
)

// binaryFixedLen is the version, time, severity and shape bytes.
const binaryFixedLen = 1 + 8 + 4 + 1 + 1

// The range of Unix seconds a text timestamp can carry: years 0000 to
// 9999. The binary codec accepts the same times and no others.
const (
	minBinarySec = -62167219200 // 0000-01-01T00:00:00Z
	maxBinarySec = 253402300799 // 9999-12-31T23:59:59Z
)

// maxBinaryField bounds a decoded location field's magnitude and a
// string's length; a larger varint is corruption (or a field a writer
// could not encode).
const maxBinaryField = 1<<31 - 1

// ErrBinaryVersion reports a payload whose first byte is not
// BinaryVersion: another encoding, a canonical text line among them.
var ErrBinaryVersion = errors.New("logs: unsupported binary record version")

// ErrBinaryRecord reports a payload that is not the canonical binary
// encoding of a record.
var ErrBinaryRecord = errors.New("logs: malformed binary record")

// AppendBinary appends the binary payload of r to dst. Like AppendText it
// never fails: a field the payload cannot carry — a severity outside
// Info…Failure, a time outside years 0000–9999, an unknown card kind, a
// location whose code topology.Parse reads back differently, a component
// with a space, a message ending in a line break — is written so that
// ParseBinary rejects it, as ParseRecord rejects or alters the text such
// a record renders to. The location is cut where its text code ends
// (the first unset field), and an empty or "-" component both encode as
// empty, as in the text format.
func (r Record) AppendBinary(dst []byte) []byte {
	dst = append(dst, BinaryVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Time.Unix()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Time.Nanosecond()))
	sev := byte(0xff)
	if r.Severity >= Info && r.Severity <= Failure {
		sev = byte(r.Severity)
	}
	dst = append(dst, sev)
	l := r.Location
	switch {
	case l.Flat != "":
		dst = binary.AppendUvarint(append(dst, locFlat), uint64(len(l.Flat)))
	case l.Rack < 0:
		dst = append(dst, locSystem)
	case l.Midplane < 0:
		dst = appendField(append(dst, locRack), l.Rack)
	case l.NodeCard < 0:
		dst = appendField(appendField(append(dst, locMidplane), l.Rack), l.Midplane)
	case l.Card == topology.CardNone || l.Slot < 0:
		dst = appendField(appendField(appendField(append(dst, locNodeCard), l.Rack), l.Midplane), l.NodeCard)
	default:
		dst = appendField(appendField(appendField(append(dst, locCard), l.Rack), l.Midplane), l.NodeCard)
		dst = appendField(appendField(append(dst, byte(l.Card)), l.Slot), l.Unit)
	}
	comp := r.Component
	if comp == "-" {
		comp = ""
	}
	dst = binary.AppendUvarint(dst, uint64(len(comp)))
	dst = append(append(append(dst, l.Flat...), comp...), r.Message...)
	return dst
}

// appendField appends a location field as a zigzag varint: a unit may be
// negative, as its two text digits may be "-1".
func appendField(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

// ParseBinary decodes a binary record payload; EventID is set to -1. It
// accepts only canonical payloads — those AppendBinary of the result
// writes back byte for byte — of records the text codec carries
// unchanged, ParseRecord(rec.String()) == rec, and otherwise returns
// ErrBinaryVersion or ErrBinaryRecord. The record's strings share one
// allocation.
func ParseBinary(p []byte) (Record, error) {
	if len(p) > 0 && p[0] != BinaryVersion {
		return Record{}, ErrBinaryVersion
	}
	if len(p) < binaryFixedLen {
		return Record{}, ErrBinaryRecord
	}
	sec := int64(binary.BigEndian.Uint64(p[1:]))
	nsec := binary.BigEndian.Uint32(p[9:])
	sev := p[13]
	shape := p[14]
	if sec < minBinarySec || sec > maxBinarySec || nsec >= 1e9 || sev > byte(Failure) || shape > locFlat {
		return Record{}, ErrBinaryRecord
	}
	rec := Record{Time: time.Unix(sec, int64(nsec)).UTC(), Severity: Severity(sev), EventID: -1}
	off, host := binaryFixedLen, 0
	ok := true
	if shape == locFlat {
		host, ok = lenField(p, &off)
		ok = ok && host > 0
	} else {
		// Rack, midplane, node card and slot decide the shape a location
		// encodes to, so each is set (>= 0) wherever it is present. Each
		// field also fits the width topology.Parse reads it at: two
		// digits of rack and slot, one of midplane, two characters of
		// unit (-9…99); a node card is a digit run.
		rec.Location = topology.System
		l := &rec.Location
		if shape >= locRack {
			l.Rack, ok = locField(p, &off)
			ok = ok && 0 <= l.Rack && l.Rack <= 99
		}
		if ok && shape >= locMidplane {
			l.Midplane, ok = locField(p, &off)
			ok = ok && 0 <= l.Midplane && l.Midplane <= 9
		}
		if ok && shape >= locNodeCard {
			l.NodeCard, ok = locField(p, &off)
			ok = ok && l.NodeCard >= 0
		}
		if ok && shape == locCard {
			ok = off < len(p)
			if ok {
				switch card := topology.CardKind(p[off]); card {
				case topology.CardCompute, topology.CardIO, topology.CardLink, topology.CardService:
					l.Card = card
				default:
					ok = false
				}
				off++
			}
			if ok {
				l.Slot, ok = locField(p, &off)
				ok = ok && 0 <= l.Slot && l.Slot <= 99
			}
			if ok {
				l.Unit, ok = locField(p, &off)
				ok = ok && -9 <= l.Unit && l.Unit <= 99
			}
		}
	}
	if !ok {
		return Record{}, ErrBinaryRecord
	}
	comp, ok := lenField(p, &off)
	if !ok || host+comp > len(p)-off {
		return Record{}, ErrBinaryRecord
	}
	s := string(p[off:])
	if shape == locFlat {
		rec.Location = topology.FlatNode(s[:host])
	}
	rec.Component = s[host : host+comp]
	rec.Message = s[host+comp:]
	// What the text line would cut or read differently: a host Parse
	// does not read back, a component holding the line's separator, a
	// message ending in the line break ParseRecord trims.
	msgEnd := byte(0)
	if rec.Message != "" {
		msgEnd = rec.Message[len(rec.Message)-1]
	}
	if shape == locFlat && !topology.IsFlatHost(rec.Location.Flat) ||
		rec.Component == "-" || strings.IndexByte(rec.Component, ' ') >= 0 ||
		msgEnd == '\n' || msgEnd == '\r' {
		return Record{}, ErrBinaryRecord
	}
	return rec, nil
}

// lenField decodes the string length at p[*off], a varint, advancing
// *off past it. It fails on a truncated varint, one not in its shortest
// form, and one above maxBinaryField.
func lenField(p []byte, off *int) (int, bool) {
	if *off < len(p) && p[*off] < 0x80 { // every length below 128
		v := int(p[*off])
		*off++
		return v, true
	}
	x, n := binary.Uvarint(p[min(*off, len(p)):])
	if n <= 0 || x > maxBinaryField || p[*off+n-1] == 0 {
		return 0, false
	}
	*off += n
	return int(x), true
}

// locField decodes the location field at p[*off], a zigzag varint,
// advancing *off past it. It fails like lenField, and on a magnitude
// above maxBinaryField.
func locField(p []byte, off *int) (int, bool) {
	if *off < len(p) && p[*off] < 0x80 { // every field in -64…63
		b := int(p[*off])
		*off++
		return b>>1 ^ -(b & 1), true
	}
	x, n := binary.Varint(p[min(*off, len(p)):])
	if n <= 0 || x < -maxBinaryField-1 || x > maxBinaryField || p[*off+n-1] == 0 {
		return 0, false
	}
	*off += n
	return int(x), true
}
