package ingest

import (
	"bufio"
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// Socket is the push backend: a unix or TCP listener accepting
// CRC-framed, length-prefixed record frames from any number of
// producers. Records from all connections funnel into one bounded queue
// in arrival order.
//
// Per-connection error accounting is quarantine-compatible: a bad frame
// header or CRC mismatch poisons only its connection (counted, the
// connection is dropped, the stream continues); an undecodable payload
// poisons only itself. A connection that dies mid-frame counts as a
// resync — a reconnecting producer resumes the stream, the reader never
// wedges.
//
// End of stream is explicit: a producer sends a zero-length end frame
// when done. Next returns io.EOF once an end frame has been seen and
// every accepted connection has drained and closed.
type Socket struct {
	ln    net.Listener
	recCh chan logs.Record
	eofCh chan struct{} // closed when ended && active == 0
	done  chan struct{} // closed by Close

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	active int64 // connections still reading
	ended  bool  // an end frame was seen
	closed bool

	wg   sync.WaitGroup
	recs atomic.Int64

	delivered   atomic.Int64
	quarantined atomic.Int64
	resyncs     atomic.Int64
	nconns      atomic.Int64
	aborted     atomic.Int64
}

// ListenSocket starts a socket backend on network ("tcp" or "unix") and
// address. queue bounds the arrival buffer (<= 0 selects 1024).
func ListenSocket(network, addr string, queue int) (*Socket, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	if queue <= 0 {
		queue = 1024
	}
	s := &Socket{
		ln:    ln,
		recCh: make(chan logs.Record, queue),
		eofCh: make(chan struct{}),
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the listener's address (useful with ":0" TCP listens).
func (s *Socket) Addr() net.Addr { return s.ln.Addr() }

func (s *Socket) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil { //nolint:elsaerrflow // Accept fails only when Close tears the listener down: the exit signal, not a lost record
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.active++
		s.mu.Unlock()
		s.nconns.Add(1)
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve reads frames off one connection until it ends. Sends into the
// bounded queue apply natural backpressure to the producer; Close
// unblocks them via the done channel.
func (s *Socket) serve(conn net.Conn) {
	defer s.wg.Done()
	clean := false
	// One read(2) per burst, not two per frame.
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf []byte
	for {
		payload, nbuf, _, err := readFrame(br, buf)
		buf = nbuf
		if err != nil {
			switch err {
			case io.EOF:
				// Producer closed without an end frame: legitimate for
				// a long-lived collector that reconnects later.
				clean = true
			case errFrameCRC:
				// The payload arrived intact length-wise; count it and
				// drop the connection — after a CRC fault the framing
				// can no longer be trusted.
				s.quarantined.Add(1)
			default:
				// Torn mid-frame or an invalid header.
				s.resyncs.Add(1)
			}
			break
		}
		if payload == nil {
			// End-of-stream marker.
			clean = true
			s.mu.Lock()
			s.ended = true
			s.mu.Unlock()
			break
		}
		rec, perr := logs.ParseBinary(payload)
		if perr != nil {
			s.quarantined.Add(1)
			continue
		}
		select {
		case s.recCh <- rec:
		case <-s.done:
			s.finishConn(conn, clean)
			return
		}
	}
	if !clean {
		s.aborted.Add(1)
	}
	s.finishConn(conn, clean)
}

// finishConn retires a connection and closes eofCh when the stream is
// complete (end marker seen, no connection still reading). It is the
// single owner of the eofCh close: the select-guarded close below runs
// on at most one goroutine because fire requires active == 0 under the
// lock.
//
//elsa:chanowner s.eofCh
func (s *Socket) finishConn(conn net.Conn, clean bool) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.active--
	fire := s.ended && s.active == 0 && !s.closed
	s.mu.Unlock()
	if fire {
		// All producer sends happened before their connections retired,
		// so every record is already buffered when eofCh closes.
		select {
		case <-s.eofCh:
		default:
			close(s.eofCh)
		}
	}
}

// Next returns the next record from any connection.
func (s *Socket) Next(ctx context.Context) (logs.Record, error) {
	select {
	case rec := <-s.recCh:
		s.recs.Add(1)
		s.delivered.Add(1)
		return rec, nil
	case <-ctx.Done():
		return logs.Record{}, ctx.Err()
	case <-s.eofCh:
		// Drain what was buffered before the stream completed.
		select {
		case rec := <-s.recCh:
			s.recs.Add(1)
			s.delivered.Add(1)
			return rec, nil
		default:
			return logs.Record{}, io.EOF
		}
	case <-s.done:
		return logs.Record{}, ErrClosed
	}
}

// Offset reports how many records have been delivered. A socket stream
// has no random access; the offset is informational and rides in
// snapshots so a resumed monitor knows how far the dead one got.
func (s *Socket) Offset() Offset { return Offset{Records: s.recs.Load()} }

// Seek succeeds only for the current position: producers replay from
// their own cursors, the listener cannot rewind what peers will send.
func (s *Socket) Seek(off Offset) error {
	if off.Records == s.recs.Load() {
		return nil
	}
	return ErrNotSeekable
}

// Stats reports the per-connection error accounting, aggregated.
func (s *Socket) Stats() Stats {
	return Stats{
		Delivered:    s.delivered.Load(),
		Quarantined:  s.quarantined.Load(),
		Resyncs:      s.resyncs.Load(),
		Conns:        s.nconns.Load(),
		AbortedConns: s.aborted.Load(),
	}
}

// Close shuts the listener and every open connection down and unblocks
// any pending Next. It owns the done close: the closed flag under the
// lock makes the close path run once.
//
//elsa:chanowner s.done
func (s *Socket) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	close(s.done)
	s.wg.Wait()
	return err
}

// FrameConn is the producer side of the socket backend: it frames
// records onto an established connection. Callers dial with net.Dial
// and wrap the conn; End sends the end-of-stream marker.
type FrameConn struct {
	w   io.Writer
	buf []byte
}

// NewFrameConn wraps a producer-side connection (or any writer, for
// tests).
func NewFrameConn(w io.Writer) *FrameConn { return &FrameConn{w: w} }

// WriteRecord frames one record.
func (fc *FrameConn) WriteRecord(rec logs.Record) error {
	fc.buf = appendRecordFrame(fc.buf[:0], rec)
	_, err := fc.w.Write(fc.buf)
	return err
}

// End sends the end-of-stream marker. The connection stays open for the
// caller to close.
func (fc *FrameConn) End() error { return writeEndFrame(fc.w) }
