package logs

// RecordSource is a pull-based record iterator. The streaming pipeline
// consumes sources instead of slices, so callers never need the whole
// log in memory: a source may wrap an in-memory batch (replay), a file
// reader, a network tail, or a generator.
//
// Next returns the next record and true, or the zero Record and false
// once the source is exhausted. After Next returns false, Err reports
// the error that ended the stream (nil on clean end-of-input).
type RecordSource interface {
	Next() (Record, bool)
	Err() error
}

// SliceSource replays an in-memory slice of records. It is how the
// batch prediction path drives the same streaming pipeline the online
// monitor runs.
type SliceSource struct {
	recs []Record
	i    int
}

// NewSliceSource returns a source over recs. The slice is not copied;
// callers must not mutate it while the source is being drained.
func NewSliceSource(recs []Record) *SliceSource {
	return &SliceSource{recs: recs}
}

// Next returns the next record in slice order.
func (s *SliceSource) Next() (Record, bool) {
	if s.i >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// Err always returns nil: a slice cannot fail mid-stream.
func (s *SliceSource) Err() error { return nil }

// Remaining returns how many records have not been pulled yet.
func (s *SliceSource) Remaining() int { return len(s.recs) - s.i }

// FuncSource adapts a pull function to a RecordSource; useful for
// adapters and tests.
type FuncSource struct {
	fn  func() (Record, bool, error)
	err error
}

// NewFuncSource wraps fn. fn is called once per Next; a non-nil error
// ends the stream and surfaces via Err. An error returned together with
// a final record (ok true) does not drop that record: it is delivered
// first and the stream ends on the following Next — the
// record-then-error ordering io.Reader implementations use.
func NewFuncSource(fn func() (Record, bool, error)) *FuncSource {
	return &FuncSource{fn: fn}
}

// Next pulls the next record from the wrapped function.
func (s *FuncSource) Next() (Record, bool) {
	if s.err != nil {
		return Record{}, false
	}
	rec, ok, err := s.fn()
	if err != nil {
		s.err = err
		if ok {
			return rec, true
		}
		return Record{}, false
	}
	return rec, ok
}

// Err returns the error that ended the stream, if any.
func (s *FuncSource) Err() error { return s.err }

// Drain pulls every remaining record from src into a slice, returning
// the source's terminal error (nil on clean end).
func Drain(src RecordSource) ([]Record, error) {
	var out []Record
	for {
		rec, ok := src.Next()
		if !ok {
			return out, src.Err()
		}
		out = append(out, rec)
	}
}
