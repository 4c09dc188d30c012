package ingest

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// The frozen references of the segment store: the per-frame decoder and
// the reader built on it as they stood before SegDir read in blocks (two
// ReadAt calls per frame, payload copied into buf and again into the
// record's strings). Nothing outside the tests uses them; the
// differential test and FuzzSegDirReader hold the block reader to them
// record by record. Their frame and block logic is frozen; only the
// payload codec followed the frames from text to binary
// (logs.ParseBinary).

// appendFrame appends the framed payload to dst: the reference encoder
// appendRecordFrame and readFrame are checked against.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// readFrameAt decodes the frame starting at byte pos of r, whose
// readable size is limit. It returns the payload (in buf, grown as
// needed) and the frame size. pos == limit is io.EOF; a frame crossing
// limit is errFrameTorn.
func readFrameAt(r io.ReaderAt, limit, pos int64, buf []byte) (payload, newBuf []byte, size int64, err error) {
	if pos >= limit {
		return nil, buf, 0, io.EOF
	}
	var hdr [frameHeaderLen]byte
	if pos+frameHeaderLen > limit {
		return nil, buf, 0, errFrameTorn
	}
	if _, err := r.ReadAt(hdr[:], pos); err != nil {
		return nil, buf, 0, errFrameTorn
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	crc := binary.BigEndian.Uint32(hdr[4:8])
	if n == 0 || n > MaxFramePayload {
		return nil, buf, 0, errFrameInvalid
	}
	size = frameHeaderLen + int64(n)
	if pos+size > limit {
		return nil, buf, 0, errFrameTorn
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := r.ReadAt(buf, pos+frameHeaderLen); err != nil {
		return nil, buf, 0, errFrameTorn
	}
	if crc32.ChecksumIEEE(buf) != crc {
		return buf, buf, size, errFrameCRC
	}
	return buf, buf, size, nil
}

// refSegDir is SegDir's Next and Seek as they stood on readFrameAt. It
// borrows the reader's segment bookkeeping (openSegment, refreshSize,
// nextSegment, Offset, Stats, Close), which the block window did not
// touch, and never looks at its window.
type refSegDir struct {
	*SegDir
	buf []byte
}

func openRefSegDir(dir string, opts SegDirOptions) (*refSegDir, error) {
	r, err := OpenSegDir(dir, opts)
	if err != nil {
		return nil, err
	}
	return &refSegDir{SegDir: r}, nil
}

func (r *refSegDir) Next(ctx context.Context) (logs.Record, error) {
	for {
		if err := ctx.Err(); err != nil {
			return logs.Record{}, err
		}
		payload, nbuf, size, ferr := readFrameAt(r.f, r.size, r.pos, r.buf)
		r.buf = nbuf
		if ferr == io.EOF || ferr == errFrameTorn {
			grew, err := r.refreshSize()
			if err != nil {
				return logs.Record{}, err
			}
			if grew {
				continue
			}
		}
		switch ferr {
		case nil:
			r.pos += size
			r.rel++
			rec, perr := logs.ParseBinary(payload)
			if perr != nil {
				r.stats.Quarantined++
				continue
			}
			r.stats.Delivered++
			return rec, nil
		case errFrameCRC:
			r.pos += size
			r.rel++
			r.stats.Quarantined++
			continue
		default:
			next, err := r.nextSegment(r.base)
			if err != nil {
				return logs.Record{}, err
			}
			if next >= 0 {
				if ferr != io.EOF {
					r.stats.Resyncs++
					if lost := next - (r.base + r.rel); lost > 0 {
						r.stats.Quarantined += lost
					}
				}
				if err := r.openSegment(next); err != nil {
					return logs.Record{}, err
				}
				continue
			}
			if !r.opts.Follow {
				if ferr != io.EOF {
					r.stats.Resyncs++
					r.stats.Quarantined++
				}
				return logs.Record{}, io.EOF
			}
			if !sleepCtx(ctx, r.opts.Poll) {
				return logs.Record{}, ctx.Err()
			}
		}
	}
}

func (r *refSegDir) Seek(off Offset) error {
	target := off.Records
	if target < 0 {
		return fmt.Errorf("ingest: negative seek target %d", target)
	}
	bases, err := listSegments(r.dir)
	if err != nil {
		return err
	}
	if len(bases) == 0 {
		return fmt.Errorf("ingest: no segments in %s", r.dir)
	}
	i := sort.Search(len(bases), func(i int) bool { return bases[i] > target }) - 1
	if i < 0 {
		return fmt.Errorf("ingest: record %d is before the first segment (base %d)", target, bases[0])
	}
	if err := r.openSegment(bases[i]); err != nil {
		return err
	}
	rel := target - r.base
	startRel, startPos := indexFloor(idxPath(r.dir, r.base), rel)
	r.rel, r.pos = startRel, startPos
	for r.rel < rel {
		_, nbuf, size, ferr := readFrameAt(r.f, r.size, r.pos, r.buf)
		r.buf = nbuf
		switch ferr {
		case nil, errFrameCRC:
			r.pos += size
			r.rel++
		default:
			if grew, err := r.refreshSize(); err != nil {
				return err
			} else if grew {
				continue
			}
			return fmt.Errorf("ingest: seek to record %d: segment %020d ends at record %d",
				target, r.base, r.base+r.rel)
		}
	}
	return nil
}
