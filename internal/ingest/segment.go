package ingest

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// Segmented append-only log directory, Kafka-style. A directory holds
// numbered segments
//
//	00000000000000000000.seg  00000000000000000000.idx
//	00000000000000012288.seg  00000000000000012288.idx
//
// where the 20-digit name is the global index of the segment's first
// record. A segment starts with a 16-byte header (magic "ELSG", u32
// version, u64 base record index, all big-endian) followed by CRC
// frames, one record per frame (see frame.go). The .idx sidecar is a
// sparse index: fixed 16-byte entries [u64 relative record][u64 byte
// position], one every indexEvery records, letting a reader Seek to a
// record index without scanning the whole segment. The sidecar is a
// cache — a missing or truncated index only costs a longer scan.
//
// Rolls are atomic: the next segment is created O_EXCL, synced, and the
// directory fsynced before the old segment is considered sealed, so a
// crash never leaves two writers agreeing on different tails. Readers
// treat the segment with the highest base as the active tail and
// everything below as sealed (immutable).

// segMagic opens every segment file.
var segMagic = [4]byte{'E', 'L', 'S', 'G'}

// segVersion is the on-disk format version. Version 2 frames carry the
// binary record payload; version 1 frames carried text.
const segVersion = 2

// ErrSegmentVersion reports a segment written under another on-disk
// format version. Opening or appending to such a directory fails with it:
// a directory is read and written in one version, never converted in
// place.
type ErrSegmentVersion struct {
	Path string
	Got  uint32
	Want uint32
}

func (e *ErrSegmentVersion) Error() string {
	return fmt.Sprintf("ingest: segment %s is format version %d, this build reads version %d", e.Path, e.Got, e.Want)
}

// segHeaderLen is the fixed segment header size.
const segHeaderLen = 16

// DefaultSegmentBytes is the roll threshold: a segment is sealed once
// its byte size reaches it.
const DefaultSegmentBytes = 8 << 20

// DefaultIndexEvery is the sparse-index stride in records.
const DefaultIndexEvery = 512

// SegmentOptions tunes a segment writer.
type SegmentOptions struct {
	// SegmentBytes is the roll threshold (<= 0 selects
	// DefaultSegmentBytes).
	SegmentBytes int64
	// IndexEvery is the sparse-index stride (<= 0 selects
	// DefaultIndexEvery).
	IndexEvery int64
	// SyncEvery fsyncs the active segment every N appends (0 = only on
	// roll and Close; durability is the snapshot's job, not every
	// record's).
	SyncEvery int64
}

// SegmentWriter appends records to a segment directory.
type SegmentWriter struct {
	dir  string
	opts SegmentOptions

	f    *os.File
	idx  *os.File
	base int64 // global index of the current segment's first record
	n    int64 // records in the current segment
	pos  int64 // byte size of the current segment
	buf  []byte
}

// CreateSegmentDir creates (or opens for append) a segment directory.
// On an existing directory the writer resumes at the tail of the newest
// segment; a torn tail frame left by a crashed writer is truncated away
// before appending continues.
func CreateSegmentDir(dir string, opts SegmentOptions) (*SegmentWriter, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.IndexEvery <= 0 {
		opts.IndexEvery = DefaultIndexEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &SegmentWriter{dir: dir, opts: opts}
	bases, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(bases) == 0 {
		if err := w.createSegment(0); err != nil {
			return nil, err
		}
		return w, nil
	}
	if err := w.reopenTail(bases[len(bases)-1]); err != nil {
		return nil, err
	}
	return w, nil
}

// NextIndex returns the global index the next appended record gets.
func (w *SegmentWriter) NextIndex() int64 { return w.base + w.n }

// Append frames one record onto the active segment, rolling first if
// the segment is full.
func (w *SegmentWriter) Append(rec logs.Record) error {
	if w.f == nil {
		return os.ErrClosed
	}
	if w.pos >= w.opts.SegmentBytes {
		if err := w.roll(); err != nil {
			return err
		}
	}
	if w.n%w.opts.IndexEvery == 0 {
		var ent [16]byte
		binary.BigEndian.PutUint64(ent[0:8], uint64(w.n))
		binary.BigEndian.PutUint64(ent[8:16], uint64(w.pos))
		if _, err := w.idx.Write(ent[:]); err != nil {
			return err
		}
	}
	w.buf = appendRecordFrame(w.buf[:0], rec)
	if _, err := w.f.Write(w.buf); err != nil {
		return err
	}
	w.pos += int64(len(w.buf))
	w.n++
	if w.opts.SyncEvery > 0 && w.n%w.opts.SyncEvery == 0 {
		return w.f.Sync()
	}
	return nil
}

// Sync flushes the active segment and its index to stable storage.
func (w *SegmentWriter) Sync() error {
	if w.f == nil {
		return os.ErrClosed
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	return w.idx.Sync()
}

// Close seals the writer. The directory remains readable and appendable
// by a future writer.
func (w *SegmentWriter) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.Sync()
	if e := w.f.Close(); err == nil {
		err = e
	}
	if e := w.idx.Close(); err == nil {
		err = e
	}
	w.f, w.idx = nil, nil
	return err
}

// roll seals the active segment and opens the next one atomically: the
// new files are created and synced, then the directory entry is
// fsynced, before any append lands in them.
func (w *SegmentWriter) roll() error {
	if err := w.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := w.idx.Close(); err != nil {
		return err
	}
	base := w.base + w.n
	w.f, w.idx = nil, nil
	return w.createSegment(base)
}

// createSegment creates the segment files for base and makes them the
// active tail. The segment is prepared under a temporary name and
// renamed into place, so a concurrent reader can never observe a
// segment file without its header (and a crash never leaves one).
func (w *SegmentWriter) createSegment(base int64) error {
	seg := segPath(w.dir, base)
	tmp := seg + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[0:4], segMagic[:])
	binary.BigEndian.PutUint32(hdr[4:8], segVersion)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(base))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := os.Rename(tmp, seg); err != nil {
		f.Close()
		return err
	}
	idx, err := os.OpenFile(idxPath(w.dir, base), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		f.Close()
		return err
	}
	if err := SyncDir(w.dir); err != nil {
		f.Close()
		idx.Close()
		return err
	}
	w.f, w.idx, w.base, w.n, w.pos = f, idx, base, 0, segHeaderLen
	return nil
}

// reopenTail resumes appending at the end of the newest segment,
// truncating a torn tail frame a crashed writer may have left.
func (w *SegmentWriter) reopenTail(base int64) error {
	seg := segPath(w.dir, base)
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if err := checkSegHeader(f, base); err != nil {
		f.Close()
		return err
	}
	// Scan to the last frame boundary; anything after it is a torn tail.
	pos, n := int64(segHeaderLen), int64(0)
	var win frameWindow
	for {
		_, size, err := win.frameAt(f, st.Size(), pos)
		if err != nil { //nolint:elsaerrflow // the error is the scan terminator; the torn tail it marks is truncated just below
			break // io.EOF (clean), torn, invalid or CRC: stop appending here
		}
		pos += size
		n++
	}
	if pos < st.Size() {
		if err := f.Truncate(pos); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(pos, 0); err != nil {
		f.Close()
		return err
	}
	// Rebuild the sidecar up to the scanned boundary so its entries are
	// consistent with the truncated tail.
	idx, err := os.OpenFile(idxPath(w.dir, base), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		f.Close()
		return err
	}
	w.f, w.idx, w.base, w.n, w.pos = f, idx, base, n, pos
	rescanPos, rescanN := int64(segHeaderLen), int64(0)
	for rescanN < n {
		if rescanN%w.opts.IndexEvery == 0 {
			var ent [16]byte
			binary.BigEndian.PutUint64(ent[0:8], uint64(rescanN))
			binary.BigEndian.PutUint64(ent[8:16], uint64(rescanPos))
			if _, err := idx.Write(ent[:]); err != nil {
				w.Close()
				return err
			}
		}
		_, size, err := win.frameAt(f, pos, rescanPos)
		if err != nil {
			w.Close()
			return fmt.Errorf("ingest: segment %s changed under rescan: %v", seg, err)
		}
		rescanPos += size
		rescanN++
	}
	return nil
}

// segPath and idxPath name the files for a segment base.
func segPath(dir string, base int64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d.seg", base))
}

func idxPath(dir string, base int64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d.idx", base))
}

// listSegments returns the sorted base indices of the segments in dir.
func listSegments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []int64
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".seg") || len(name) != 24 {
			continue
		}
		base, err := strconv.ParseInt(name[:20], 10, 64)
		if err != nil { //nolint:elsaerrflow // filename validation: a non-numeric name is not a segment, not a serving-path error
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

// checkSegHeader validates a segment's magic, version and base.
func checkSegHeader(f *os.File, base int64) error {
	var hdr [segHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("ingest: segment header: %v", err)
	}
	if [4]byte(hdr[0:4]) != segMagic {
		return fmt.Errorf("ingest: bad segment magic %q", hdr[0:4])
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != segVersion {
		return &ErrSegmentVersion{Path: f.Name(), Got: v, Want: segVersion}
	}
	if b := int64(binary.BigEndian.Uint64(hdr[8:16])); b != base {
		return fmt.Errorf("ingest: segment header base %d does not match name %d", b, base)
	}
	return nil
}

// SyncDir fsyncs a directory so a just-created (or just-renamed) file's
// entry is durable: the segment-roll discipline, exported so snapshot
// writers can apply the same tmp+rename+dir-fsync sequence.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
