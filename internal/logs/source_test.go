package logs

import (
	"errors"
	"testing"
	"time"
)

func sourceRecords(n int) []Record {
	base := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{
			Time:     base.Add(time.Duration(i) * time.Second),
			Severity: Info,
			Message:  "heartbeat",
			EventID:  -1,
		}
	}
	return out
}

func TestSliceSourceDrains(t *testing.T) {
	recs := sourceRecords(5)
	src := NewSliceSource(recs)
	got, err := Drain(src)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("drained %d records, want %d", len(got), len(recs))
	}
	if src.Remaining() != 0 {
		t.Errorf("Remaining = %d after drain", src.Remaining())
	}
	if _, ok := src.Next(); ok {
		t.Error("exhausted source yielded a record")
	}
}

func TestFuncSource(t *testing.T) {
	recs := sourceRecords(2)
	i := 0
	wantErr := errors.New("tail broke")
	src := NewFuncSource(func() (Record, bool, error) {
		if i < len(recs) {
			r := recs[i]
			i++
			return r, true, nil
		}
		return Record{}, false, wantErr
	})
	got, err := Drain(src)
	if len(got) != 2 {
		t.Fatalf("drained %d records, want 2", len(got))
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("Err = %v, want %v", err, wantErr)
	}
}

// TestFuncSourceRecordThenError pins the record-then-error ordering: an
// error arriving together with the final record (ok true) must deliver
// that record first and end the stream on the following Next — not drop
// the record, as backends that learn of a failure only while handing
// over their last buffered record depend on.
func TestFuncSourceRecordThenError(t *testing.T) {
	recs := sourceRecords(3)
	i := 0
	wantErr := errors.New("socket reset after final frame")
	src := NewFuncSource(func() (Record, bool, error) {
		r := recs[i]
		i++
		if i == len(recs) {
			return r, true, wantErr // final record and its error together
		}
		return r, true, nil
	})
	got, err := Drain(src)
	if len(got) != len(recs) {
		t.Fatalf("Drain delivered %d records, want %d (final record dropped?)", len(got), len(recs))
	}
	if got[len(got)-1].Message != recs[len(recs)-1].Message {
		t.Error("final record differs")
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("Drain error = %v, want %v", err, wantErr)
	}
	// The error is sticky: the stream stays ended afterwards.
	if _, ok := src.Next(); ok {
		t.Error("source continued past the delivered error")
	}
	if !errors.Is(src.Err(), wantErr) {
		t.Errorf("Err = %v, want %v", src.Err(), wantErr)
	}
}
