package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/chaos"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/logs"
)

// blockRecords returns n generated records as a backend delivers them
// (through the text codec), cycling the generator's stream if it is
// shorter.
func blockRecords(tb testing.TB, n int) []logs.Record {
	tb.Helper()
	start := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	src := gen.New(gen.BlueGeneL(), 11).Generate(start, 2*time.Hour).Records
	if len(src) == 0 {
		tb.Fatal("generator produced no records")
	}
	out := make([]logs.Record, n)
	for i := range out {
		rec, err := logs.ParseRecord(src[i%len(src)].String())
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = rec
	}
	return out
}

// padded returns rec with its message grown to n bytes.
func padded(rec logs.Record, n int) logs.Record {
	rec.Message = strings.Repeat("x", n)
	return rec
}

func stageSegDir(tb testing.TB, recs []logs.Record, opts SegmentOptions) string {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "segs")
	appendSegDir(tb, dir, recs, opts)
	return dir
}

func appendSegDir(tb testing.TB, dir string, recs []logs.Record, opts SegmentOptions) {
	tb.Helper()
	w, err := CreateSegmentDir(dir, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
}

// errText renders an error for comparison across two readers.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// lockstep walks dir with the block reader and the frozen reference side
// by side — after an optional Seek to record seek (< 0: none) — and fails
// at the first Next after which record, error, Offset or Stats differ. It
// returns the offsets after every call, io.EOF's included, and the final
// stats.
func lockstep(tb testing.TB, dir string, seek int64) ([]Offset, Stats) {
	tb.Helper()
	got, err := OpenSegDir(dir, SegDirOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	defer got.Close()
	ref, err := openRefSegDir(dir, SegDirOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	defer ref.Close()
	if seek >= 0 {
		gerr, rerr := got.Seek(Offset{Records: seek}), ref.Seek(Offset{Records: seek})
		if errText(gerr) != errText(rerr) || got.Offset() != ref.Offset() {
			tb.Fatalf("Seek(%d): %v at %+v, reference %v at %+v", seek, gerr, got.Offset(), rerr, ref.Offset())
		}
		if gerr != nil {
			return nil, got.Stats()
		}
	}
	var sizes int64
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	for _, s := range segs {
		if st, err := os.Stat(s); err == nil {
			sizes += st.Size()
		}
	}
	ctx := context.Background()
	var offs []Offset
	// Every call consumes a frame (> frameHeaderLen bytes) or ends the
	// stream, so the directory's size bounds the walk.
	for calls := int64(0); calls <= sizes/frameHeaderLen+1; calls++ {
		grec, gerr := got.Next(ctx)
		rrec, rerr := ref.Next(ctx)
		if grec != rrec || gerr != rerr || got.Offset() != ref.Offset() || got.Stats() != ref.Stats() {
			tb.Fatalf("call %d (seek %d): %+v, %v at %+v stats %+v\nreference: %+v, %v at %+v stats %+v",
				calls, seek, grec, gerr, got.Offset(), got.Stats(), rrec, rerr, ref.Offset(), ref.Stats())
		}
		offs = append(offs, got.Offset())
		if gerr == io.EOF {
			return offs, got.Stats()
		}
		if gerr != nil {
			tb.Fatalf("call %d: %v", calls, gerr)
		}
	}
	tb.Fatalf("reader still delivering after more calls than %d bytes can hold frames", sizes)
	return nil, Stats{}
}

// firstEdge is the file position where the first window of a reader that
// starts at a segment's first frame ends.
const firstEdge = segHeaderLen + frameWindowLen

// TestSegDirBlockReaderMatchesFrozenReference holds the block reader to
// the per-frame reader it replaced, call by call, on the directory shapes
// where a window can go wrong: rolls, a frame bigger than the window, a
// frame straddling the window's edge at every residue, faults injected on
// the edge, and a Seek to every record.
func TestSegDirBlockReaderMatchesFrozenReference(t *testing.T) {
	recs := blockRecords(t, 1600)

	t.Run("rolled every 4 KiB, seek to every record", func(t *testing.T) {
		dir := stageSegDir(t, recs[:400], SegmentOptions{SegmentBytes: 4 << 10, IndexEvery: 7})
		if segs, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(segs) < 5 {
			t.Fatalf("expected many segments, got %d", len(segs))
		}
		if offs, _ := lockstep(t, dir, -1); len(offs) != 401 {
			t.Fatalf("walk took %d calls, want 401", len(offs))
		}
		for k := int64(0); k <= 401; k++ {
			lockstep(t, dir, k)
		}
	})

	t.Run("frame larger than the window", func(t *testing.T) {
		big := append([]logs.Record{}, recs[:30]...)
		big[0] = padded(big[0], frameWindowLen+5000)
		big[10] = padded(big[10], 3*frameWindowLen)
		big[11] = padded(big[11], MaxFramePayload-200)
		big[29] = padded(big[29], frameWindowLen)
		dir := stageSegDir(t, big, SegmentOptions{})
		if offs, _ := lockstep(t, dir, -1); len(offs) != len(big)+1 {
			t.Fatalf("walk took %d calls, want %d", len(offs), len(big)+1)
		}
		for _, k := range []int64{1, 11, 12, 29, 30} {
			lockstep(t, dir, k)
		}
	})

	t.Run("frame straddling the window edge at every residue", func(t *testing.T) {
		// Growing the first record a byte at a time slides every later
		// frame across the edge of the first window.
		var headerLast [frameHeaderLen]bool
		payloadSplit := 0
		for pad := 0; pad < 160; pad++ {
			shifted := append([]logs.Record{padded(recs[0], 40+pad)}, recs[1:1200]...)
			offs, _ := lockstep(t, stageSegDir(t, shifted, SegmentOptions{}), -1)
			for i := 1; i < len(offs); i++ {
				if start, end := offs[i-1].Bytes, offs[i].Bytes; start < firstEdge && end > firstEdge {
					if in := firstEdge - start; in <= frameHeaderLen {
						headerLast[in-1] = true
					} else {
						payloadSplit++
					}
				}
			}
		}
		for b, hit := range headerLast {
			if !hit {
				t.Errorf("no frame had header byte %d last in a window", b)
			}
		}
		if payloadSplit == 0 {
			t.Error("no frame had its payload split by a window edge")
		}
	})

	// One segment whose frames run well past the first window edge, and
	// the boundaries of the frame that straddles it.
	edgeRecs := recs[:1200]
	var before, after int64
	offs, _ := lockstep(t, stageSegDir(t, edgeRecs, SegmentOptions{}), -1)
	for _, o := range offs {
		if o.Bytes <= firstEdge {
			before = o.Bytes
		} else if after == 0 {
			after = o.Bytes
		}
	}
	if before == 0 || after == 0 {
		t.Fatal("segment does not cross the first window edge")
	}

	t.Run("byte flipped around the edge", func(t *testing.T) {
		// Every byte of the straddling frame and of the headers either side.
		for pos := before - frameHeaderLen; pos < after+frameHeaderLen; pos++ {
			dir := stageSegDir(t, edgeRecs, SegmentOptions{})
			if err := chaos.FlipSegmentByte(dir, pos-segHeaderLen); err != nil {
				t.Fatal(err)
			}
			lockstep(t, dir, -1)
			lockstep(t, dir, 700)
		}
	})

	t.Run("active tail torn around the edge", func(t *testing.T) {
		dir := stageSegDir(t, edgeRecs, SegmentOptions{})
		st, err := os.Stat(segPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		size := after + frameHeaderLen + 2
		if _, err := chaos.TearSegmentTail(dir, st.Size()-size); err != nil {
			t.Fatal(err)
		}
		// Shorten the tail a byte at a time through the header after the
		// edge, the straddling frame, and the header before it.
		for ; size > before-frameHeaderLen-2; size-- {
			lockstep(t, dir, -1)
			if cut, err := chaos.TearSegmentTail(dir, 1); err != nil || cut != 1 {
				t.Fatalf("TearSegmentTail = %d, %v", cut, err)
			}
		}
	})

	t.Run("sealed segment torn around the edge", func(t *testing.T) {
		for _, d := range []int64{-frameHeaderLen - 1, -frameHeaderLen, -1, 0, 1, frameHeaderLen - 1, frameHeaderLen, frameHeaderLen + 1, 40} {
			dir := stageSegDir(t, recs, SegmentOptions{SegmentBytes: firstEdge + 2000})
			bases, err := listSegments(dir)
			if err != nil || len(bases) < 2 {
				t.Fatalf("segments %v, %v; want a sealed one", bases, err)
			}
			st, err := os.Stat(segPath(dir, 0))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := chaos.TearSealedSegment(dir, len(bases)-1, st.Size()-(firstEdge+d)); err != nil {
				t.Fatal(err)
			}
			if _, st := lockstep(t, dir, -1); st.Resyncs != 1 || st.Quarantined == 0 {
				t.Fatalf("tear at edge%+d: stats %+v, want one resync with the gap quarantined", d, st)
			}
			lockstep(t, dir, bases[1]-3)
			lockstep(t, dir, bases[1]+3)
		}
	})

	t.Run("writer aborted mid-frame around the edge", func(t *testing.T) {
		toEdge := int(firstEdge - before)
		for _, keep := range []int{1, frameHeaderLen - 1, frameHeaderLen, frameHeaderLen + 1, toEdge - 1, toEdge, toEdge + 1, 1 << 20} {
			dir := stageSegDir(t, edgeRecs, SegmentOptions{})
			if err := os.Truncate(segPath(dir, 0), before); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(segPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := chaos.AbortMidFrame(f, padded(recs[1300], 300), keep); err != nil {
				t.Fatal(err)
			}
			if _, st := lockstep(t, dir, -1); st.Resyncs != 1 {
				t.Fatalf("keep %d: stats %+v, want the torn tail counted", keep, st)
			}
			// A restarted writer truncates the torn frame and carries on.
			appendSegDir(t, dir, recs[1300:1400], SegmentOptions{})
			if _, st := lockstep(t, dir, -1); st.Resyncs != 0 || st.Quarantined != 0 {
				t.Fatalf("keep %d: stats %+v after the writer restarted", keep, st)
			}
		}
	})
}

// TestSegDirNeverDecodesStaleTail: a tailing reader must decode what a
// restarted writer put in a torn frame's place, not bytes read before.
func TestSegDirNeverDecodesStaleTail(t *testing.T) {
	recs := blockRecords(t, 30)
	ctx := context.Background()
	// tornTail opens a tailing reader on ten records, then has a writer
	// die 400 bytes into an eleventh of 500-odd.
	tornTail := func(t *testing.T) (dir string, r *SegDir) {
		dir = stageSegDir(t, recs[:10], SegmentOptions{})
		r, err := OpenSegDir(dir, SegDirOptions{Follow: true, Poll: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		f, err := os.OpenFile(segPath(dir, 0), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := chaos.AbortMidFrame(f, padded(recs[10], 500), 400); err != nil {
			t.Fatal(err)
		}
		return dir, r
	}
	// restart brings the writer back — it truncates the torn frame — and
	// appends add where it was.
	restart := func(t *testing.T, dir string, add []logs.Record) {
		w, err := CreateSegmentDir(dir, SegmentOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if got := w.NextIndex(); got != 10 {
			t.Fatalf("restarted writer resumes at record %d, want 10", got)
		}
		for _, rec := range add {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	expect := func(t *testing.T, r *SegDir, want []logs.Record) {
		t.Helper()
		wait, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		for i, w := range want {
			if rec, err := r.Next(wait); err != nil || rec != w {
				t.Fatalf("record %d: %+v, %v; want %+v", i, rec, err, w)
			}
		}
	}

	// The reader reaches the torn frame and waits on it; the replacement
	// is shorter, so the segment never outgrows the size the reader
	// cached — only a re-read from the frame's position can find it.
	t.Run("torn frame seen, then replaced by a shorter record", func(t *testing.T) {
		dir, r := tornTail(t)
		expect(t, r, recs[:10])
		wait, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
		_, err := r.Next(wait)
		cancel()
		if err != context.DeadlineExceeded {
			t.Fatalf("Next on a torn tail = %v, want to wait out the deadline", err)
		}
		restart(t, dir, recs[11:12])
		expect(t, r, recs[11:12])
		if st := r.Stats(); st.Delivered != 11 || st.Quarantined != 0 || st.Resyncs != 0 {
			t.Errorf("stats = %+v, want 11 delivered and no faults", st)
		}
	})

	// The torn frame lies past the size the reader cached when it opened,
	// and is replaced by more bytes than it held before the reader gets
	// there: a window that had read past the cached size would take the
	// new frame's length from the dead writer's header.
	t.Run("torn frame past the cached size, replaced before the reader arrives", func(t *testing.T) {
		dir, r := tornTail(t)
		expect(t, r, recs[:1])
		restart(t, dir, recs[11:30])
		expect(t, r, append(append([]logs.Record{}, recs[1:10]...), recs[11:30]...))
		if st := r.Stats(); st.Delivered != 29 || st.Quarantined != 0 || st.Resyncs != 0 {
			t.Errorf("stats = %+v, want 29 delivered and no faults", st)
		}
	})
}

// TestSegDirNextAllocs: a record costs one allocation — the string its
// fields are cut from. The window is read into, never reallocated, and
// the parser builds no slice.
func TestSegDirNextAllocs(t *testing.T) {
	const n = 10000
	dir := stageSegDir(t, blockRecords(t, n), SegmentOptions{})
	r, err := OpenSegDir(dir, SegDirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(n-100, func() {
		if _, err := r.Next(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("Next allocates %v times per record, want at most 1", allocs)
	}
}

// BenchmarkSegDirNext is the harness row ingest.next_ns_per_record as a
// micro-benchmark: one sealed 8 MiB segment read front to back.
func BenchmarkSegDirNext(b *testing.B) {
	recs := blockRecords(b, 80000)
	dir := stageSegDir(b, recs, SegmentOptions{})
	st, err := os.Stat(segPath(dir, 0))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.SetBytes(st.Size() / int64(len(recs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; {
		r, err := OpenSegDir(dir, SegDirOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for ; i < b.N; i++ {
			if _, err := r.Next(ctx); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		r.Close()
	}
}

// TestAppendRecordFrameMatchesReferenceEncoder: framing a record in place
// writes the bytes the two-copy encoder did.
func TestAppendRecordFrameMatchesReferenceEncoder(t *testing.T) {
	buf := []byte("kept")
	for _, rec := range append(blockRecords(t, 200), logs.Record{}, padded(logs.Record{}, 70000)) {
		want := appendFrame([]byte("kept"), rec.AppendBinary(nil))
		if buf = appendRecordFrame(buf[:4], rec); !bytes.Equal(buf, want) {
			t.Fatalf("frame of %q differs from the reference encoding", rec)
		}
	}
}

// fuzzSeedFrames returns frame streams to seed the fuzzers with: the
// bytes after the header of a segment the writer staged, the same after
// each storage injector has been at them, and a frame a producer aborted.
func fuzzSeedFrames(f *testing.F) [][]byte {
	recs := blockRecords(f, 40)
	read := func(dir string) []byte {
		data, err := os.ReadFile(segPath(dir, 0))
		if err != nil {
			f.Fatal(err)
		}
		return data[segHeaderLen:]
	}
	seeds := [][]byte{read(stageSegDir(f, recs, SegmentOptions{}))}
	flipped := stageSegDir(f, recs, SegmentOptions{})
	for _, off := range []int64{2, 6, 30, -1} {
		if err := chaos.FlipSegmentByte(flipped, off); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, read(flipped))
	}
	torn := stageSegDir(f, recs, SegmentOptions{})
	if _, err := chaos.TearSegmentTail(torn, 13); err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, read(torn))
	var aborted closeBuffer
	if err := chaos.AbortMidFrame(&aborted, recs[0], 20); err != nil {
		f.Fatal(err)
	}
	return append(seeds, aborted.Bytes(), append(read(torn), aborted.Bytes()...))
}

// closeBuffer is a bytes.Buffer an injector can close.
type closeBuffer struct{ bytes.Buffer }

func (*closeBuffer) Close() error { return nil }

// v1Frames is recs as a version 1 segment framed them: each payload the
// record's canonical text line.
func v1Frames(recs []logs.Record) []byte {
	var frames []byte
	for _, rec := range recs {
		frames = appendFrame(frames, []byte(rec.String()))
	}
	return frames
}

// writeSegment writes a one-segment directory's segment file — a header
// of the given format version, then frames — and its index sidecar.
func writeSegment(tb testing.TB, dir string, version uint32, frames, idx []byte) {
	tb.Helper()
	hdr := make([]byte, segHeaderLen)
	copy(hdr, segMagic[:])
	binary.BigEndian.PutUint32(hdr[4:], version)
	if err := os.WriteFile(segPath(dir, 0), append(hdr, frames...), 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(idxPath(dir, 0), idx, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// checkVersionRefused fails unless both opening dir to read and opening
// it to append fail with the typed version error for version, leaving
// the segment's bytes as they were.
func checkVersionRefused(tb testing.TB, dir string, version uint32) {
	tb.Helper()
	before, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		tb.Fatal(err)
	}
	want := ErrSegmentVersion{Path: segPath(dir, 0), Got: version, Want: segVersion}
	var verr *ErrSegmentVersion
	if r, err := OpenSegDir(dir, SegDirOptions{}); !errors.As(err, &verr) || *verr != want {
		if r != nil {
			r.Close()
		}
		tb.Fatalf("OpenSegDir on a version %d segment: %v, want %v", version, err, &want)
	}
	if w, err := CreateSegmentDir(dir, SegmentOptions{}); !errors.As(err, &verr) || *verr != want {
		if w != nil {
			w.Close()
		}
		tb.Fatalf("CreateSegmentDir on a version %d segment: %v, want %v", version, err, &want)
	}
	if after, err := os.ReadFile(segPath(dir, 0)); err != nil || !bytes.Equal(after, before) {
		tb.Fatalf("the refused segment changed: %v", err)
	}
}

// TestSocketQuarantinesTextFrame: a frame whose CRC holds but whose
// payload is a text line, as a producer from before the binary payload
// sends, is quarantined; the binary frames around it are delivered.
func TestSocketQuarantinesTextFrame(t *testing.T) {
	recs := blockRecords(t, 2)
	s, err := ListenSocket("unix", filepath.Join(t.TempDir(), "ingest.sock"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("unix", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := NewFrameConn(conn)
	if err := fc.WriteRecord(recs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(v1Frames(recs[1:])); err != nil {
		t.Fatal(err)
	}
	if err := fc.WriteRecord(recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := fc.End(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, want := range recs {
		if rec, err := s.Next(ctx); err != nil || rec != want {
			t.Fatalf("record %d: %+v, %v; want %+v", i, rec, err, want)
		}
	}
	if _, err := s.Next(ctx); err != io.EOF {
		t.Fatalf("Next after the end marker = %v, want io.EOF", err)
	}
	if st := s.Stats(); st.Delivered != 2 || st.Quarantined != 1 || st.AbortedConns != 0 {
		t.Fatalf("stats = %+v, want 2 delivered, the text frame quarantined, the connection clean", st)
	}
}

// FuzzSegDirReader feeds arbitrary bytes to the block reader as the frames
// (and the index sidecar) of a one-segment directory of the given format
// version. A version other than segVersion is refused with the typed
// error. Otherwise Next until io.EOF and Seek must neither panic nor
// loop, cannot account more records than the bytes could frame, and must
// agree with the frozen reference call by call.
func FuzzSegDirReader(f *testing.F) {
	for i, frames := range fuzzSeedFrames(f) {
		// A true first entry, then one that points into a frame.
		idx := binary.BigEndian.AppendUint64(make([]byte, 8), segHeaderLen)
		idx = binary.BigEndian.AppendUint64(idx, uint64(i))
		idx = binary.BigEndian.AppendUint64(idx, uint64(segHeaderLen+i*7))
		f.Add(uint32(segVersion), frames, idx, uint16(i*5))
	}
	f.Add(uint32(segVersion), []byte{}, []byte{}, uint16(0))
	f.Add(uint32(1), v1Frames(blockRecords(f, 40)), binary.BigEndian.AppendUint64(make([]byte, 8), segHeaderLen), uint16(3))
	f.Fuzz(func(t *testing.T, version uint32, frames, idx []byte, seek uint16) {
		dir := t.TempDir()
		writeSegment(t, dir, version, frames, idx)
		if version != segVersion {
			checkVersionRefused(t, dir, version)
			return
		}
		// A frame is a header and at least one payload byte; a torn tail
		// quarantines one record more.
		fit := int64(len(frames)) / (frameHeaderLen + 1)
		offs, st := lockstep(t, dir, -1)
		if consumed := offs[len(offs)-1].Records; consumed > fit || st.Delivered+st.Quarantined > fit+1 {
			t.Fatalf("%d records consumed, stats %+v, from %d bytes", consumed, st, len(frames))
		}
		lockstep(t, dir, int64(seek))
	})
}

// FuzzReadFrame feeds arbitrary bytes to the socket's frame decoder the
// way Socket.serve does, through a bufio.Reader: an error, never a panic,
// and an accepted frame re-encodes to exactly the bytes it consumed. Its
// payload then decodes to a record that re-encodes to it, or is
// quarantined — always so when it is not a binary payload, like the text
// frames of the version 1 seed.
func FuzzReadFrame(f *testing.F) {
	for _, frames := range fuzzSeedFrames(f) {
		f.Add(frames)
	}
	f.Add(v1Frames(blockRecords(f, 3)))
	f.Add(make([]byte, frameHeaderLen))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReaderSize(bytes.NewReader(data), 16)
		var buf []byte
		for consumed := 0; ; {
			payload, nbuf, size, err := readFrame(br, buf)
			buf = nbuf
			if err != nil {
				if err != io.EOF && err != errFrameTorn && err != errFrameInvalid && err != errFrameCRC {
					t.Fatalf("readFrame error %v is none of the frame errors", err)
				}
				if err == io.EOF && consumed != len(data) {
					t.Fatalf("clean EOF with %d of %d bytes consumed", consumed, len(data))
				}
				return
			}
			if consumed+size > len(data) || !bytes.Equal(appendFrame(nil, payload), data[consumed:consumed+size]) {
				t.Fatalf("frame at %d (size %d) does not re-encode to the bytes consumed", consumed, size)
			}
			if payload != nil {
				rec, err := logs.ParseBinary(payload)
				switch {
				case err == nil && !bytes.Equal(rec.AppendBinary(nil), payload):
					t.Fatalf("frame at %d: record %+v does not re-encode to its payload", consumed, rec)
				case err == nil && payload[0] != logs.BinaryVersion:
					t.Fatalf("frame at %d: payload % x without the version byte was delivered", consumed, payload)
				}
			}
			consumed += size
		}
	})
}
