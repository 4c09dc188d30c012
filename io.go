package elsa

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// ReadLog decodes a canonical text log ("RFC3339Nano SEVERITY LOCATION
// COMPONENT message..." per line; blank and '#' lines skipped).
func ReadLog(r io.Reader) ([]Record, error) { return logs.ReadAll(r) }

// SortRecords orders records chronologically and stably: equal times
// keep their input order. Adapter-imported logs are not guaranteed to be
// time-sorted, but they arrive as a few time-sorted sources concatenated;
// SortRecords merges those runs in O(n log k) for k runs, costs one
// linear pass on sorted input, and never copies the records.
func SortRecords(recs []Record) { logs.SortByTime(recs) }

// WriteLog encodes records in the canonical text format.
func WriteLog(w io.Writer, recs []Record) error { return logs.WriteAll(w, recs) }

// WriteFailures encodes ground-truth failures as JSON lines.
func WriteFailures(w io.Writer, failures []Failure) error {
	enc := json.NewEncoder(w)
	for i, f := range failures {
		if err := enc.Encode(f); err != nil {
			return fmt.Errorf("elsa: failure %d: %w", i, err)
		}
	}
	return nil
}

// ReadFailures decodes JSON-lines ground truth written by WriteFailures.
func ReadFailures(r io.Reader) ([]Failure, error) {
	dec := json.NewDecoder(r)
	var out []Failure
	for {
		var f Failure
		if err := dec.Decode(&f); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("elsa: failure %d: %w", len(out), err)
		}
		out = append(out, f)
	}
}
