package ingest_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/ingest"
	"github.com/elsa-hpc/elsa/internal/logs"
)

var genStart = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// testRecords generates a deterministic synthetic stream. Records pass
// through the canonical text codec, so EventID is the parsed -1 either
// way.
func testRecords(t *testing.T, hours int) []logs.Record {
	t.Helper()
	res := gen.New(gen.BlueGeneL(), 7).Generate(genStart, time.Duration(hours)*time.Hour)
	if len(res.Records) == 0 {
		t.Fatal("generator produced no records")
	}
	// Round-trip through the codec so in-memory records match what any
	// backend (which parses text payloads) will deliver.
	out := make([]logs.Record, len(res.Records))
	for i, r := range res.Records {
		rec, err := logs.ParseRecord(r.String())
		if err != nil {
			t.Fatalf("record %d does not round-trip: %v", i, err)
		}
		out[i] = rec
	}
	return out
}

// writeLogFile writes records as a canonical text file.
func writeLogFile(t *testing.T, recs []logs.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := logs.WriteAll(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeSegDir writes records into a fresh segment directory.
func writeSegDir(t *testing.T, recs []logs.Record, opts ingest.SegmentOptions) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "segs")
	w, err := ingest.CreateSegmentDir(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// drainBackend pulls every record until io.EOF.
func drainBackend(t *testing.T, b ingest.Backend) []logs.Record {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var out []logs.Record
	for {
		rec, err := b.Next(ctx)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(out), err)
		}
		out = append(out, rec)
	}
}

func TestFileBackendDeliversAll(t *testing.T) {
	recs := testRecords(t, 2)
	fb, err := ingest.OpenFile(writeLogFile(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	got := drainBackend(t, fb)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("file backend delivered %d records, want %d (or contents differ)", len(got), len(recs))
	}
	if st := fb.Stats(); st.Delivered != int64(len(recs)) || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want %d delivered, 0 quarantined", st, len(recs))
	}
}

func TestFileBackendSeekByteHint(t *testing.T) {
	recs := testRecords(t, 2)
	path := writeLogFile(t, recs)
	fb, err := ingest.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cut := len(recs) / 3
	for i := 0; i < cut; i++ {
		if _, err := fb.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	off := fb.Offset()
	fb.Close()

	for name, seekOff := range map[string]ingest.Offset{
		"byte-hint": off,
		"rescan":    {Records: off.Records},
	} {
		fb2, err := ingest.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fb2.Seek(seekOff); err != nil {
			t.Fatalf("%s seek: %v", name, err)
		}
		got := drainBackend(t, fb2)
		if !reflect.DeepEqual(got, recs[cut:]) {
			t.Errorf("%s: resumed stream differs (%d records, want %d)", name, len(got), len(recs)-cut)
		}
		if d := fb2.Stats().Delivered; d != int64(len(recs)-cut) {
			t.Errorf("%s: delivered = %d, want %d", name, d, len(recs)-cut)
		}
		fb2.Close()
	}
}

func TestFileBackendQuarantinesBadLines(t *testing.T) {
	recs := testRecords(t, 1)
	path := filepath.Join(t.TempDir(), "dirty.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "# comment")
	fmt.Fprintln(f, recs[0].String())
	fmt.Fprintln(f, "not a record at all")
	fmt.Fprintln(f, recs[1].String())
	f.Close()

	fb, err := ingest.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	got := drainBackend(t, fb)
	if len(got) != 2 {
		t.Fatalf("delivered %d records, want 2", len(got))
	}
	if st := fb.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
}

// TestLinesBackendOverPlainReader is the daemons' stdin feed: the
// injected decoder sees each line with its EOL stripped, lines it rejects
// are quarantined, the last line needs no newline, and a reader cannot
// seek anywhere but where it already is.
func TestLinesBackendOverPlainReader(t *testing.T) {
	recs := testRecords(t, 1)[:3]
	decode := func(line string) (logs.Record, error) {
		rest, ok := strings.CutPrefix(line, "rec ")
		if !ok {
			return logs.Record{}, fmt.Errorf("no prefix in %q", line)
		}
		return logs.ParseRecord(rest)
	}
	text := "# header\n\nrec " + recs[0].String() + "\r\n" + recs[1].String() + "\nrec garbage\nrec " + recs[2].String()
	lb := ingest.NewLines(strings.NewReader(text), decode)
	if got := drainBackend(t, lb); !reflect.DeepEqual(got, []logs.Record{recs[0], recs[2]}) {
		t.Fatalf("delivered %v", got)
	}
	if st := lb.Stats(); st.Delivered != 2 || st.Quarantined != 2 {
		t.Errorf("stats = %+v, want 2 delivered, 2 quarantined", st)
	}
	if off := lb.Offset(); off.Records != 2 || off.Bytes != int64(len(text)) {
		t.Errorf("offset = %+v, want 2 records, %d bytes", off, len(text))
	}
	if err := lb.Seek(lb.Offset()); err != nil {
		t.Errorf("seek to the current position: %v", err)
	}
	if err := lb.Seek(ingest.Offset{}); !errors.Is(err, ingest.ErrNotSeekable) {
		t.Errorf("rewind of a plain reader = %v, want ErrNotSeekable", err)
	}
	if err := lb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := lb.Next(context.Background()); !errors.Is(err, ingest.ErrClosed) {
		t.Errorf("Next after Close = %v, want ErrClosed", err)
	}

	long := ingest.NewLines(strings.NewReader(strings.Repeat("x", 2<<20)+"\n"), decode)
	if _, err := long.Next(context.Background()); err == nil || err == io.EOF {
		t.Errorf("a 2 MiB line read as %v, want an error", err)
	}
}

// TestOpenSelectsBackend: the selector both daemons share refuses a
// backend whose address is missing, and names the ones it knows.
func TestOpenSelectsBackend(t *testing.T) {
	path := writeLogFile(t, testRecords(t, 1))
	b, err := ingest.Open("file", path, "", false)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	for _, bad := range [][3]string{{"file", "", ""}, {"segdir", "", ""}, {"socket", "", "nocolon"}, {"kafka", path, ""}} {
		if _, err := ingest.Open(bad[0], bad[1], bad[2], false); err == nil {
			t.Errorf("Open(%q, %q, %q) succeeded", bad[0], bad[1], bad[2])
		}
	}
}

func TestSegDirRollsAndDeliversAll(t *testing.T) {
	recs := testRecords(t, 2)
	// Tiny segments force many rolls.
	dir := writeSegDir(t, recs, ingest.SegmentOptions{SegmentBytes: 16 << 10, IndexEvery: 32})
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	r, err := ingest.OpenSegDir(dir, ingest.SegDirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drainBackend(t, r)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("segdir delivered %d records, want %d (or contents differ)", len(got), len(recs))
	}
	if st := r.Stats(); st.Quarantined != 0 || st.Resyncs != 0 {
		t.Errorf("clean log accounted faults: %+v", st)
	}
}

func TestSegDirSeekEveryBucket(t *testing.T) {
	recs := testRecords(t, 1)
	dir := writeSegDir(t, recs, ingest.SegmentOptions{SegmentBytes: 32 << 10, IndexEvery: 16})
	for _, target := range []int{0, 1, 15, 16, 17, len(recs) / 2, len(recs) - 1, len(recs)} {
		r, err := ingest.OpenSegDir(dir, ingest.SegDirOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Seek(ingest.Offset{Records: int64(target)}); err != nil {
			t.Fatalf("seek %d: %v", target, err)
		}
		got := drainBackend(t, r)
		if len(got) != len(recs)-target {
			t.Errorf("seek %d: delivered %d records, want %d", target, len(got), len(recs)-target)
		} else if len(got) > 0 && !reflect.DeepEqual(got, recs[target:]) {
			t.Errorf("seek %d: stream contents differ", target)
		}
		r.Close()
	}
}

func TestSegDirFollowsLiveWriter(t *testing.T) {
	recs := testRecords(t, 8) // > 1+2+…+200 records
	dir := filepath.Join(t.TempDir(), "segs")
	w, err := ingest.CreateSegmentDir(dir, ingest.SegmentOptions{SegmentBytes: 96 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Seed one record so the reader has a segment to open.
	if err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	r, err := ingest.OpenSegDir(dir, ingest.SegDirOptions{Follow: true, Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The writer appends in bursts of 1, 2, … 200 records and lets the
	// reader catch up in between, so the tail the reader polls grows by
	// every amount from one frame to a few windows' worth.
	burstEnd := func(from, burst int) int { return min(from+burst, len(recs)) }
	caughtUp := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for at, burst := 1, 1; at < len(recs); burst = burst%200 + 1 {
			end := burstEnd(at, burst)
			for _, rec := range recs[at:end] {
				if err := w.Append(rec); err != nil {
					done <- err
					return
				}
			}
			at = end
			<-caughtUp
		}
		done <- w.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got := make([]logs.Record, 0, len(recs))
	for next, burst := 1, 0; len(got) < len(recs); {
		rec, err := r.Next(ctx)
		if err != nil {
			t.Fatalf("tailing Next after %d records: %v", len(got), err)
		}
		got = append(got, rec)
		if len(got) == next {
			if burst > 0 {
				caughtUp <- struct{}{}
			}
			burst = burst%200 + 1
			next = burstEnd(next, burst)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("tailed stream differs from written stream")
	}

	// With the writer closed and no more data, a cancelled ctx must
	// unblock the tail promptly (elsactxflow contract).
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer shortCancel()
	if _, err := r.Next(shortCtx); err != context.DeadlineExceeded {
		t.Fatalf("tail Next under cancelled ctx = %v, want deadline exceeded", err)
	}
}

func TestSegmentWriterResumesAppend(t *testing.T) {
	recs := testRecords(t, 1)
	half := len(recs) / 2
	dir := filepath.Join(t.TempDir(), "segs")
	w, err := ingest.CreateSegmentDir(dir, ingest.SegmentOptions{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:half] {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := ingest.CreateSegmentDir(dir, ingest.SegmentOptions{SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w2.NextIndex(), int64(half); got != want {
		t.Fatalf("resumed writer NextIndex = %d, want %d", got, want)
	}
	for _, r := range recs[half:] {
		if err := w2.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := ingest.OpenSegDir(dir, ingest.SegDirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := drainBackend(t, r); !reflect.DeepEqual(got, recs) {
		t.Fatalf("reassembled stream has %d records, want %d (or contents differ)", len(got), len(recs))
	}
}

func TestSocketBackendSingleProducer(t *testing.T) {
	recs := testRecords(t, 1)
	s, err := ingest.ListenSocket("tcp", "127.0.0.1:0", 256)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	go func() {
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		fc := ingest.NewFrameConn(conn)
		for _, r := range recs {
			if fc.WriteRecord(r) != nil {
				return
			}
		}
		fc.End()
	}()

	got := drainBackend(t, s)
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("socket delivered %d records, want %d (or contents differ)", len(got), len(recs))
	}
	st := s.Stats()
	if st.Conns != 1 || st.AbortedConns != 0 || st.Quarantined != 0 {
		t.Errorf("stats = %+v, want one clean connection", st)
	}
	if got := s.Offset().Records; got != int64(len(recs)) {
		t.Errorf("offset = %d, want %d", got, len(recs))
	}
}

func TestSocketBackendUnixAndCancel(t *testing.T) {
	sockPath := filepath.Join(t.TempDir(), "ingest.sock")
	s, err := ingest.ListenSocket("unix", sockPath, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// No producer: a cancelled ctx must unblock Next promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Next(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Next under cancelled ctx = %v, want deadline exceeded", err)
	}

	recs := testRecords(t, 1)[:10]
	go func() {
		conn, err := net.Dial("unix", sockPath)
		if err != nil {
			return
		}
		defer conn.Close()
		fc := ingest.NewFrameConn(conn)
		for _, r := range recs {
			if fc.WriteRecord(r) != nil {
				return
			}
		}
		fc.End()
	}()
	if got := drainBackend(t, s); !reflect.DeepEqual(got, recs) {
		t.Fatal("unix socket stream differs")
	}
	if err := s.Seek(ingest.Offset{Records: 0}); err != ingest.ErrNotSeekable {
		t.Errorf("socket Seek to past offset = %v, want ErrNotSeekable", err)
	}
}

// TestBackendEquivalence is the record-level half of the acceptance
// criterion: the same generated log through all three backends yields
// identical record streams.
func TestBackendEquivalence(t *testing.T) {
	recs := testRecords(t, 2)

	fb, err := ingest.OpenFile(writeLogFile(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fromFile := drainBackend(t, fb)

	sd, err := ingest.OpenSegDir(writeSegDir(t, recs, ingest.SegmentOptions{SegmentBytes: 64 << 10}), ingest.SegDirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	fromSeg := drainBackend(t, sd)

	sock, err := ingest.ListenSocket("tcp", "127.0.0.1:0", 512)
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	go func() {
		conn, err := net.Dial("tcp", sock.Addr().String())
		if err != nil {
			return
		}
		defer conn.Close()
		fc := ingest.NewFrameConn(conn)
		for _, r := range recs {
			if fc.WriteRecord(r) != nil {
				return
			}
		}
		fc.End()
	}()
	fromSock := drainBackend(t, sock)

	if !reflect.DeepEqual(fromFile, recs) {
		t.Error("file stream differs from the source records")
	}
	if !reflect.DeepEqual(fromSeg, fromFile) {
		t.Error("segdir stream differs from file stream")
	}
	if !reflect.DeepEqual(fromSock, fromFile) {
		t.Error("socket stream differs from file stream")
	}
}

// TestSourceAdapter proves the RecordSource view drains a backend the
// way Pipeline.Run expects, and surfaces cancellation via Err.
func TestSourceAdapter(t *testing.T) {
	recs := testRecords(t, 1)
	fb, err := ingest.OpenFile(writeLogFile(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	got, err := logs.Drain(ingest.NewSource(context.Background(), fb))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("source adapter stream differs")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fb2, err := ingest.OpenFile(writeLogFile(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	src := ingest.NewSource(ctx, fb2)
	if _, ok := src.Next(); ok {
		t.Fatal("cancelled source delivered a record")
	}
	if src.Err() != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", src.Err())
	}
}

// TestBackendsClosedReturnErrClosed proves the declared lifecycle
// (//elsa:state open closed on Backend) at runtime for all three
// backends: Next and Seek after Close return the typed ErrClosed, which
// still satisfies errors.Is(err, os.ErrClosed) for pre-existing checks.
func TestBackendsClosedReturnErrClosed(t *testing.T) {
	recs := testRecords(t, 1)
	backends := map[string]ingest.Backend{}

	fb, err := ingest.OpenFile(writeLogFile(t, recs))
	if err != nil {
		t.Fatal(err)
	}
	backends["file"] = fb

	sd, err := ingest.OpenSegDir(writeSegDir(t, recs, ingest.SegmentOptions{}), ingest.SegDirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	backends["segdir"] = sd

	sock, err := ingest.ListenSocket("tcp", "127.0.0.1:0", 16)
	if err != nil {
		t.Fatal(err)
	}
	backends["socket"] = sock

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for name, b := range backends {
		if err := b.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if _, err := b.Next(ctx); err != ingest.ErrClosed {
			t.Errorf("%s: Next after Close: err = %v, want ingest.ErrClosed", name, err)
		}
		if !errors.Is(func() error { _, err := b.Next(ctx); return err }(), os.ErrClosed) {
			t.Errorf("%s: Next after Close does not satisfy errors.Is(err, os.ErrClosed)", name)
		}
		if err := b.Close(); err != nil {
			t.Errorf("%s: second Close: %v", name, err)
		}
	}

	// Seek after Close for the random-access backends (the socket's Seek
	// contract is position-only and orthogonal to closing).
	if err := fb.Seek(ingest.Offset{}); err != ingest.ErrClosed {
		t.Errorf("file: Seek after Close: err = %v, want ingest.ErrClosed", err)
	}
	if err := sd.Seek(ingest.Offset{}); err != ingest.ErrClosed {
		t.Errorf("segdir: Seek after Close: err = %v, want ingest.ErrClosed", err)
	}
}
