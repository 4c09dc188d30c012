package ingest

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// maxLineBytes bounds one text line; a longer one ends the stream with
// an error instead of growing the buffer without limit.
const maxLineBytes = 1 << 20

// Lines reads text records, one per line, from a reader: the daemons'
// stdin feed in whatever format the injected decoder understands, and —
// over a file, via OpenFile — the flat log the batch tools always read.
// It tracks the byte offset after every delivered record, so a monitor
// over a file can snapshot mid-stream and Seek straight back without
// rescanning; over a plain reader Seek is ErrNotSeekable. Blank lines
// and '#' comments are skipped; undecodable lines are quarantined
// (counted, stream continues), matching the monitor daemon's ingest
// discipline rather than the batch tools' fail-fast one.
type Lines struct {
	br     *bufio.Reader
	decode func(line string) (logs.Record, error)
	file   *os.File // nil over a plain reader: not seekable, nothing to close
	recs   int64    // records delivered
	pos    int64    // byte offset of the next unread line
	stats  Stats
	closed bool
}

// NewLines returns a line backend over r; decode turns one line (EOL
// stripped) into a record. The caller keeps ownership of r.
func NewLines(r io.Reader, decode func(line string) (logs.Record, error)) *Lines {
	return &Lines{br: bufio.NewReaderSize(r, maxLineBytes), decode: decode}
}

// OpenFile opens path as a seekable line backend of canonical records,
// positioned at the start.
func OpenFile(path string) (*Lines, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	lb := NewLines(f, logs.ParseRecord)
	lb.file = f
	return lb, nil
}

// Next returns the next well-formed record. Over a file it never blocks
// on anything but disk, but it still honours a done context between
// lines so cancellation is prompt on huge files.
func (lb *Lines) Next(ctx context.Context) (logs.Record, error) {
	if lb.closed {
		return logs.Record{}, ErrClosed
	}
	for {
		if err := ctx.Err(); err != nil {
			return logs.Record{}, err
		}
		raw, err := lb.br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			return logs.Record{}, fmt.Errorf("ingest: line longer than %d bytes", maxLineBytes)
		}
		if err != nil && err != io.EOF {
			return logs.Record{}, err
		}
		// The last line may end at EOF without a newline.
		lb.pos += int64(len(raw))
		line := strings.TrimRight(string(raw), "\r\n")
		if line != "" && line[0] != '#' {
			rec, perr := lb.decode(line)
			if perr == nil {
				lb.recs++
				lb.stats.Delivered++
				return rec, nil
			}
			lb.stats.Quarantined++
		}
		if err == io.EOF {
			return logs.Record{}, io.EOF
		}
	}
}

// Offset reports the resume point after the last delivered record, with
// the byte position as a seek hint.
func (lb *Lines) Offset() Offset {
	return Offset{Records: lb.recs, Bytes: lb.pos}
}

// Seek repositions a file-backed stream. A byte hint written by this
// backend's Offset is honoured directly; without one the file is
// rescanned from the start, counting off.Records records. A plain
// reader cannot rewind: anything but its current position is
// ErrNotSeekable.
func (lb *Lines) Seek(off Offset) error {
	if lb.closed {
		return ErrClosed
	}
	if lb.file == nil {
		if off.Records == lb.recs {
			return nil
		}
		return ErrNotSeekable
	}
	if _, err := lb.file.Seek(max(off.Bytes, 0), io.SeekStart); err != nil {
		return err
	}
	lb.br.Reset(lb.file)
	if off.Bytes > 0 {
		lb.pos, lb.recs = off.Bytes, off.Records
		return nil
	}
	lb.pos, lb.recs = 0, 0
	ctx := context.Background()
	for lb.recs < off.Records {
		if _, err := lb.Next(ctx); err != nil {
			return err
		}
	}
	// The scan above counted the skipped records as delivered; they were
	// delivered before the snapshot, not by this incarnation.
	lb.stats.Delivered -= off.Records
	return nil
}

// Stats reports the error accounting so far.
func (lb *Lines) Stats() Stats { return lb.stats }

// Close closes the underlying file, if the backend opened one.
func (lb *Lines) Close() error {
	if lb.closed {
		return nil
	}
	lb.closed = true
	if lb.file == nil {
		return nil
	}
	return lb.file.Close()
}
