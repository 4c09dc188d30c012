package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// Storage and transport fault injection for the ingest backends. The
// record-level Injector perturbs streams the pipeline's hardening layer
// must absorb; the helpers here perturb the layers underneath it — the
// bytes of a segment directory and the framing on a producer socket —
// which the ingest readers must absorb. Both fault classes mirror real
// collector failures: a node dies mid-append (torn tail), a disk flips a
// bit (CRC mismatch), a producer's TCP session drops mid-frame.
//
// The contract under test is quarantine-and-continue: an ingest reader
// facing these faults counts the damage in its Stats and keeps
// delivering every intact record, never wedging and never erroring out.

// TearSegmentTail truncates the newest segment in a segment directory by
// n bytes, leaving the torn partial frame a crashed writer leaves. It
// returns how many bytes were actually removed (clamped so the 16-byte
// segment header survives — a torn tail is a write fault, not a missing
// segment).
func TearSegmentTail(dir string, n int64) (int64, error) {
	return tearSegment(dir, 0, n)
}

// TearSealedSegment is TearSegmentTail aimed at a sealed segment:
// fromNewest counts back from the active tail (1 is the segment sealed
// most recently). A reader hitting the torn bytes must resync to the
// next segment, counting the swallowed records as quarantined, rather
// than wedging or erroring.
func TearSealedSegment(dir string, fromNewest int, n int64) (int64, error) {
	if fromNewest < 1 {
		return 0, fmt.Errorf("chaos: fromNewest %d does not name a sealed segment", fromNewest)
	}
	return tearSegment(dir, fromNewest, n)
}

func tearSegment(dir string, fromNewest int, n int64) (int64, error) {
	seg, err := pickSegment(dir, fromNewest)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(seg)
	if err != nil {
		return 0, err
	}
	const segHeaderLen = 16
	cut := n
	if max := st.Size() - segHeaderLen; cut > max {
		cut = max
	}
	if cut <= 0 {
		return 0, nil
	}
	return cut, os.Truncate(seg, st.Size()-cut)
}

// FlipSegmentByte XORs one byte of the newest segment's frame data with
// 0xFF, at off bytes past the segment header (negative counts from the
// end). The enclosing frame's CRC no longer matches its payload, which a
// reader must quarantine without losing the frames after it.
func FlipSegmentByte(dir string, off int64) error {
	seg, err := pickSegment(dir, 0)
	if err != nil {
		return err
	}
	st, err := os.Stat(seg)
	if err != nil {
		return err
	}
	const segHeaderLen = 16
	pos := segHeaderLen + off
	if off < 0 {
		pos = st.Size() + off
	}
	if pos < segHeaderLen || pos >= st.Size() {
		return fmt.Errorf("chaos: flip offset %d outside segment data [%d, %d)", pos, segHeaderLen, st.Size())
	}
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], pos); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b[:], pos)
	return err
}

// pickSegment returns the path of the .seg file fromNewest places before
// the highest-based one (0 is the active tail).
func pickSegment(dir string, fromNewest int) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var segs []string
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".seg") && len(name) == 24 {
			segs = append(segs, name)
		}
	}
	if len(segs) == 0 {
		return "", fmt.Errorf("chaos: no segments in %s", dir)
	}
	sort.Strings(segs)
	i := len(segs) - 1 - fromNewest
	if i < 0 {
		return "", fmt.Errorf("chaos: directory has %d segments, cannot reach %d back", len(segs), fromNewest)
	}
	return filepath.Join(dir, segs[i]), nil
}

// AbortMidFrame writes the leading keep bytes of rec's wire frame to w —
// never the whole frame — and closes it, simulating a producer that dies
// mid-send. The frame encoding (u32 big-endian payload length, u32
// big-endian IEEE CRC, payload bytes) is spelled out here on purpose: the
// injector speaks the documented wire format, not the producer library,
// so a reader that only survives the library's framing fails this. The
// payload is the record's binary encoding (logs.Record.AppendBinary).
func AbortMidFrame(w io.WriteCloser, rec logs.Record, keep int) error {
	payload := rec.AppendBinary(nil)
	frame := make([]byte, 8, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)
	if keep < 1 {
		keep = 1
	}
	if keep >= len(frame) {
		keep = len(frame) - 1
	}
	if _, err := w.Write(frame[:keep]); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
