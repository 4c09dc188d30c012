package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// Frame format shared by the socket and segment backends: an 8-byte
// header — u32 payload length, u32 IEEE CRC of the payload, both
// big-endian — followed by the payload, one record in the binary
// encoding of logs.Record.AppendBinary (its first byte is the payload
// version, logs.BinaryVersion). A payload that logs.ParseBinary rejects
// — a text line from an old producer among them — is quarantined like a
// CRC failure. A zero-length frame (CRC 0) is the producer's
// end-of-stream marker on the socket backend and is invalid inside a
// segment.

// frameHeaderLen is the fixed frame header size.
const frameHeaderLen = 8

// MaxFramePayload bounds a frame's payload. It tracks the largest line
// the text codec accepts; anything bigger did not come out of a sane
// producer and is treated as stream corruption.
const MaxFramePayload = 1 << 20

// errFrameTorn reports a frame cut short by the end of the available
// bytes — the tail of an actively written segment, or a connection that
// died mid-frame.
var errFrameTorn = fmt.Errorf("ingest: torn frame")

// errFrameInvalid reports an impossible header (oversized length): the
// stream position does not hold a frame boundary.
var errFrameInvalid = fmt.Errorf("ingest: invalid frame header")

// errFrameCRC reports a complete frame whose payload failed its CRC.
var errFrameCRC = fmt.Errorf("ingest: frame CRC mismatch")

// appendRecordFrame appends rec's frame to dst: the header bytes are
// reserved, the binary payload is encoded straight after them, then
// length and CRC are back-filled — the record is encoded once and copied
// nowhere.
func appendRecordFrame(dst []byte, rec logs.Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...)
	dst = rec.AppendBinary(dst)
	payload := dst[start+frameHeaderLen:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// writeEndFrame writes the zero-length end-of-stream marker.
func writeEndFrame(w io.Writer) error {
	var hdr [frameHeaderLen]byte
	_, err := w.Write(hdr[:])
	return err
}

// readFrame reads one frame from r into buf (grown as needed), returning
// the payload view and the total frame size consumed. A zero-length
// frame returns (nil, frameHeaderLen, nil). Torn streams surface as
// errFrameTorn (clean EOF before any header byte stays io.EOF).
func readFrame(r io.Reader, buf []byte) (payload, newBuf []byte, size int, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, buf, 0, io.EOF
		}
		return nil, buf, 0, errFrameTorn
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	crc := binary.BigEndian.Uint32(hdr[4:8])
	if n == 0 {
		if crc != 0 {
			return nil, buf, 0, errFrameInvalid
		}
		return nil, buf, frameHeaderLen, nil
	}
	if n > MaxFramePayload {
		return nil, buf, 0, errFrameInvalid
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, 0, errFrameTorn
	}
	if crc32.ChecksumIEEE(buf) != crc {
		return buf, buf, frameHeaderLen + int(n), errFrameCRC
	}
	return buf, buf, frameHeaderLen + int(n), nil
}

// frameWindowLen is the block a frameWindow reads at a time: ~950
// binary records, so a sequential reader pays one pread per block
// instead of two per frame. A constant, not an option: past a few tens
// of KiB the syscall is already amortised away and a reader only ever
// holds one window.
const frameWindowLen = 64 << 10

// frameWindow is the block reader of the segment store: a window of one
// file's bytes from which frames are decoded in place. The zero value is
// an empty window.
type frameWindow struct {
	buf []byte // window bytes; buf[0] is file byte off
	off int64
}

// drop empties the window, keeping its storage.
func (w *frameWindow) drop() { w.buf = w.buf[:0] }

// cover makes file bytes [pos, pos+need) readable from the window and
// reports whether it could. Bytes past limit — the size the caller has
// cached — are never read: they may be a frame the writer has not
// finished. A refill happens only when the range is not wholly inside
// the window, and always re-reads from pos, not from where the old
// window ended: what lies past a torn tail may since have been truncated
// and overwritten by a restarted writer.
func (w *frameWindow) cover(r io.ReaderAt, limit, pos, need int64) bool {
	if pos+need > limit {
		return false
	}
	if pos >= w.off && pos+need <= w.off+int64(len(w.buf)) {
		return true
	}
	n := min(max(frameWindowLen, need), limit-pos)
	if int64(cap(w.buf)) < n {
		w.buf = make([]byte, n)
	}
	m, err := r.ReadAt(w.buf[:n], pos)
	w.buf, w.off = w.buf[:m], pos
	// A short read means the file shrank under a stale limit; that tears
	// the frame only if the bytes that did arrive do not cover it.
	return err == nil || int64(m) >= need
}

// frameAt decodes the frame starting at byte pos of r, whose readable
// size is limit, in place: the payload is a view into the window, valid
// until the next call. pos == limit is io.EOF; a frame crossing limit is
// errFrameTorn, decided before any window byte is trusted. A torn or
// invalid result drops the window, so the retry after the writer moves
// decodes what is on disk then, not what was.
func (w *frameWindow) frameAt(r io.ReaderAt, limit, pos int64) (payload []byte, size int64, err error) {
	if pos >= limit {
		return nil, 0, io.EOF
	}
	if !w.cover(r, limit, pos, frameHeaderLen) {
		w.drop()
		return nil, 0, errFrameTorn
	}
	n := binary.BigEndian.Uint32(w.buf[pos-w.off:])
	if n == 0 || n > MaxFramePayload {
		w.drop()
		return nil, 0, errFrameInvalid
	}
	size = frameHeaderLen + int64(n)
	if !w.cover(r, limit, pos, size) {
		w.drop()
		return nil, 0, errFrameTorn
	}
	frame := w.buf[pos-w.off:][:size]
	payload = frame[frameHeaderLen:]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(frame[4:]) {
		return payload, size, errFrameCRC
	}
	return payload, size, nil
}
