// Package ingest abstracts record ingestion behind pluggable backends.
//
// The paper's offline analysis reads a flat log file once; a fleet-scale
// monitor ingests a durable, partitioned stream. Backend is the contract
// between the two worlds: a pull iterator with context-aware blocking,
// a stable resume offset, and quarantine-compatible error accounting.
// Three implementations ship with the package:
//
//   - Lines: text records one per line from any reader (a daemon's
//     stdin) or, seekable, from the flat log file the batch tools always
//     read, tracking byte offsets so a monitor can resume mid-file;
//   - Socket: a unix/TCP listener speaking CRC-framed, length-prefixed
//     records in the binary payload (logs.Record.AppendBinary), for
//     collectors that push;
//   - SegDir: a Kafka-style segmented append-only log directory —
//     fixed-size segments of the same frames, with index sidecars,
//     atomic segment roll, and a tailing reader that follows across
//     rolls and resumes from a persisted offset.
//
// Backends deliver parsed records; malformed input is counted (and where
// possible skipped) rather than wedging the stream, mirroring the
// pipeline's quarantine discipline. Source adapts a Backend to the
// logs.RecordSource view the pipeline and batch Predict consume, so
// existing call sites are untouched.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// Offset is a stable resume point in a backend's stream. Records is
// authoritative: the number of records delivered so far, i.e. the global
// index of the next record to deliver. Bytes is a byte-position hint the
// file backend uses to avoid rescanning; backends that cannot honour it
// ignore it.
//
// Offsets ride in the monitor snapshot envelope, extending kill/resume
// stream-equality across backends: snapshot the monitor together with
// Offset(), then Seek a fresh backend there and feed the resumed monitor.
type Offset struct {
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes,omitempty"`
}

// Stats is a backend's error accounting, quarantine-compatible: nothing
// in here is fatal, everything is counted.
type Stats struct {
	// Delivered counts records handed to the consumer.
	Delivered int64
	// Quarantined counts records lost to frame corruption, CRC
	// mismatches or undecodable payloads — the stream continued.
	Quarantined int64
	// Resyncs counts recovery jumps: abandoned torn segment tails and
	// connections that died mid-frame.
	Resyncs int64
	// Conns / AbortedConns count accepted and abnormally closed
	// connections (socket backend only).
	Conns        int64
	AbortedConns int64
}

// ErrNotSeekable is returned by Seek on backends without random access
// (the socket listener) when asked for anything but their live position.
var ErrNotSeekable = errors.New("ingest: backend cannot seek")

// ErrClosed is returned by Next and Seek on a closed backend. It wraps
// os.ErrClosed so existing errors.Is(err, os.ErrClosed) checks keep
// working while the package gains its own typed sentinel.
var ErrClosed = fmt.Errorf("ingest: backend is closed: %w", os.ErrClosed)

// Backend is a pull-based record stream with resume support.
//
// Next blocks until a record is available, the stream ends (io.EOF), or
// ctx is done (ctx.Err()). Implementations select on ctx.Done() around
// every blocking wait, so a caller can always cancel out. Backends are
// not safe for concurrent use by multiple consumers.
//
//elsa:state open closed
type Backend interface {
	// Next returns the next record, io.EOF at clean end of stream,
	// ctx.Err() when cancelled, or ErrClosed after Close.
	//
	//elsa:requires open
	Next(ctx context.Context) (logs.Record, error)

	// Offset reports the resume point after the last delivered record.
	Offset() Offset

	// Seek repositions the stream so the next Next returns the record at
	// off. Backends without random access return ErrNotSeekable unless
	// off is already their position; closed backends return ErrClosed.
	//
	//elsa:requires open
	Seek(off Offset) error

	// Stats reports the error accounting so far.
	Stats() Stats

	// Close releases the backend. Next calls after Close return
	// ErrClosed; Close is idempotent.
	//
	//elsa:transition open->closed closed->closed
	Close() error
}

// Open builds the backend a daemon's -ingest flag names: "file" and
// "segdir" read the path in (follow tails a segment directory for new
// records instead of stopping at its end), "socket" listens on listen,
// given as net:addr.
func Open(kind, in, listen string, follow bool) (Backend, error) {
	switch kind {
	case "file":
		if in == "" {
			return nil, fmt.Errorf("-ingest file requires -in <logfile>")
		}
		return OpenFile(in)
	case "segdir":
		if in == "" {
			return nil, fmt.Errorf("-ingest segdir requires -in <segment-dir>")
		}
		return OpenSegDir(in, SegDirOptions{Follow: follow})
	case "socket":
		network, addr, ok := strings.Cut(listen, ":")
		if !ok || network == "" || addr == "" {
			return nil, fmt.Errorf("-ingest socket requires -listen net:addr (e.g. unix:/tmp/elsa.sock)")
		}
		return ListenSocket(network, addr, 1024)
	default:
		return nil, fmt.Errorf("unknown -ingest backend %q (want file, socket or segdir)", kind)
	}
}

// Source adapts a Backend to the logs.RecordSource view a batch replay
// (Model.PredictSource, Pipeline.Run) pulls from. The context bounds
// every Next: when it fires, the source ends with the context error in
// Err.
type Source struct {
	ctx context.Context
	b   Backend
	err error
}

// NewSource wraps b as a RecordSource bounded by ctx.
func NewSource(ctx context.Context, b Backend) *Source {
	return &Source{ctx: ctx, b: b}
}

// Next pulls the next record from the backend.
func (s *Source) Next() (logs.Record, bool) {
	if s.err != nil {
		return logs.Record{}, false
	}
	rec, err := s.b.Next(s.ctx)
	if err != nil {
		if err != io.EOF {
			s.err = err
		}
		return logs.Record{}, false
	}
	return rec, true
}

// Err returns the error that ended the stream, or nil at clean EOF.
func (s *Source) Err() error { return s.err }
