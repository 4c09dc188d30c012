package ingest

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// SegDirOptions tunes a segment-directory reader.
type SegDirOptions struct {
	// Follow keeps the reader tailing the active segment: at the end of
	// the log it waits for more data (or a new segment) instead of
	// returning io.EOF.
	Follow bool
	// Poll is the tail re-check interval in Follow mode (<= 0 selects
	// 10ms).
	Poll time.Duration
}

// SegDir reads a segment directory written by SegmentWriter, in global
// record order, tailing across segment rolls.
//
// Corruption never wedges the reader: a frame with a bad CRC is
// quarantined (counted, its record index consumed) and reading
// continues at the next frame; a torn or unframeable tail in a sealed
// segment abandons the rest of that segment (a resync — the lost
// records are counted against the next segment's base index); a torn
// tail on the active segment means the writer is mid-append — in Follow
// mode the reader waits for the bytes to complete, otherwise it is
// quarantined as a truncated tail and the stream ends.
type SegDir struct {
	dir  string
	opts SegDirOptions

	f    *os.File
	base int64 // active segment's base record index
	rel  int64 // records consumed in the active segment
	pos  int64 // byte position in the active segment
	size int64 // cached segment size, refreshed when a read hits it
	win  frameWindow

	stats  Stats
	closed bool
}

// OpenSegDir opens dir positioned at the first record of the lowest
// segment.
func OpenSegDir(dir string, opts SegDirOptions) (*SegDir, error) {
	if opts.Poll <= 0 {
		opts.Poll = 10 * time.Millisecond
	}
	bases, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("ingest: no segments in %s", dir)
	}
	r := &SegDir{dir: dir, opts: opts}
	if err := r.openSegment(bases[0]); err != nil {
		return nil, err
	}
	return r, nil
}

// openSegment makes base the active segment, positioned at its first
// frame.
func (r *SegDir) openSegment(base int64) error {
	f, err := os.Open(segPath(r.dir, base))
	if err != nil {
		return err
	}
	if err := checkSegHeader(f, base); err != nil {
		f.Close()
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if r.f != nil {
		r.f.Close()
	}
	r.f, r.base, r.rel, r.pos, r.size = f, base, 0, segHeaderLen, st.Size()
	r.win.drop()
	return nil
}

// refreshSize re-stats the active segment, reporting whether it grew
// past the cached size.
func (r *SegDir) refreshSize() (bool, error) {
	st, err := r.f.Stat()
	if err != nil {
		return false, err
	}
	if st.Size() > r.size {
		r.size = st.Size()
		return true, nil
	}
	return false, nil
}

// nextSegment returns the base of the segment after cur, or -1.
func (r *SegDir) nextSegment(cur int64) (int64, error) {
	bases, err := listSegments(r.dir)
	if err != nil {
		return -1, err
	}
	for _, b := range bases {
		if b > cur {
			return b, nil
		}
	}
	return -1, nil
}

// Next returns the next record. See the type docs for the corruption
// contract.
func (r *SegDir) Next(ctx context.Context) (logs.Record, error) {
	if r.closed {
		return logs.Record{}, ErrClosed
	}
	for {
		select { // not ctx.Err, which takes a lock on every record
		case <-ctx.Done():
			return logs.Record{}, ctx.Err()
		default:
		}
		payload, size, ferr := r.win.frameAt(r.f, r.size, r.pos)
		if ferr == io.EOF || ferr == errFrameTorn {
			// The cached size may be stale while the writer appends.
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
			// Complete frame, bad payload: its index is consumed, the
			// framing after it is still trustworthy.
			r.pos += size
			r.rel++
			r.stats.Quarantined++
			continue
		default:
			// io.EOF (clean segment end), torn tail, or an invalid
			// header. All three resolve the same way: move on if a
			// newer segment exists, wait or end otherwise.
			next, err := r.nextSegment(r.base)
			if err != nil {
				return logs.Record{}, err
			}
			if next >= 0 {
				// Sealed segment — but the writer may have appended to it
				// and rolled since the size check above. What a sealed
				// segment holds is final, so look once more before
				// leaving it.
				if grew, err := r.refreshSize(); err != nil {
					return logs.Record{}, err
				} else if grew {
					continue
				}
				// A clean end is the normal roll; bytes left over are a
				// torn tail to abandon (resync) — the records they held
				// are quarantined against the gap to the next base.
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
			// Active segment.
			if !r.opts.Follow {
				if ferr != io.EOF {
					// Truncated tail on the final segment: count what
					// the torn bytes swallowed and end the stream.
					r.stats.Resyncs++
					r.stats.Quarantined++
				}
				return logs.Record{}, io.EOF
			}
			// Tailing: the writer may be mid-append. Wait for growth,
			// bounded by ctx.
			if !sleepCtx(ctx, r.opts.Poll) {
				return logs.Record{}, ctx.Err()
			}
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, reporting whether the
// full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Offset reports the resume point after the last delivered record.
func (r *SegDir) Offset() Offset {
	return Offset{Records: r.base + r.rel, Bytes: r.pos}
}

// Seek repositions the reader to the record at off.Records using the
// segment names and index sidecars; only the residual stride within one
// index bucket is scanned.
func (r *SegDir) Seek(off Offset) error {
	if r.closed {
		return ErrClosed
	}
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
		_, size, ferr := r.win.frameAt(r.f, r.size, r.pos)
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

// indexFloor returns the greatest sidecar entry at or below rel, or the
// first-frame position when the sidecar is missing or unusable.
func indexFloor(path string, rel int64) (startRel, startPos int64) {
	startRel, startPos = 0, segHeaderLen
	data, err := os.ReadFile(path)
	if err != nil { //nolint:elsaerrflow // a missing/unreadable sidecar is the designed fallback: scan from the first frame
		return startRel, startPos
	}
	for p := 0; p+16 <= len(data); p += 16 {
		er := int64(binary.BigEndian.Uint64(data[p : p+8]))
		ep := int64(binary.BigEndian.Uint64(data[p+8 : p+16]))
		if er > rel || ep < segHeaderLen {
			break
		}
		startRel, startPos = er, ep
	}
	return startRel, startPos
}

// Stats reports the error accounting so far.
func (r *SegDir) Stats() Stats { return r.stats }

// Close releases the reader.
func (r *SegDir) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.f != nil {
		return r.f.Close()
	}
	return nil
}
