// Package logs defines the event-log record model the whole pipeline
// consumes, together with a line-oriented text codec and stream utilities.
//
// A record is the tuple the paper's analysis needs from any system log:
// timestamp, severity, location, reporting component and free-form message.
// Both the synthetic generator and (in principle) adapters for real logs
// produce this shape; everything downstream is system-independent.
package logs

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/elsa-hpc/elsa/internal/topology"
)

// Severity grades a log record. The ordering matters: the pipeline treats
// Severe and above as error events when deciding which correlation chains
// can predict failures (the paper uses Blue Gene/L's severity field the
// same way).
type Severity int

// Severity levels, mildest first.
const (
	Info Severity = iota
	Warning
	Error
	Severe
	Failure
)

var severityNames = [...]string{"INFO", "WARNING", "ERROR", "SEVERE", "FAILURE"}

// String returns the upper-case level name used in the text format.
func (s Severity) String() string {
	if s < Info || s > Failure {
		return "UNKNOWN"
	}
	return severityNames[s]
}

// ParseSeverity decodes a severity name (case-insensitive). FATAL is
// accepted as an alias for FAILURE since real BG/L logs use both.
func ParseSeverity(s string) (Severity, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INFO":
		return Info, nil
	case "WARNING", "WARN":
		return Warning, nil
	case "ERROR":
		return Error, nil
	case "SEVERE":
		return Severe, nil
	case "FAILURE", "FATAL":
		return Failure, nil
	default:
		return Info, fmt.Errorf("logs: unknown severity %q", s)
	}
}

// IsError reports whether the severity indicates a problem (Severe or
// worse). Info and Warning records are symptoms at most.
func (s Severity) IsError() bool { return s >= Severe }

// Record is one log line after parsing.
type Record struct {
	Time      time.Time
	Severity  Severity
	Location  topology.Location
	Component string // reporting subsystem, e.g. KERNEL, MMCS, LINKCARD
	Message   string // free-form message body

	// EventID is the template id assigned by the HELO stage; -1 before
	// template matching has run.
	EventID int
}

// String renders the record in the canonical one-line text format:
//
//	RFC3339Nano SEVERITY LOCATION COMPONENT message...
func (r Record) String() string {
	// 64 bytes hold the longest timestamp, severity and hierarchical code.
	n := 64 + len(r.Location.Flat) + len(r.Component) + len(r.Message)
	return string(r.AppendText(make([]byte, 0, n)))
}

// AppendText appends the canonical one-line text format to dst: what
// String returns, rendered without fmt so a writer can frame a record
// straight into its output buffer.
func (r Record) AppendText(dst []byte) []byte {
	dst = r.Time.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(append(dst, ' '), r.Severity.String()...)
	dst = r.Location.AppendText(append(dst, ' '))
	comp := r.Component
	if comp == "" {
		comp = "-"
	}
	dst = append(append(dst, ' '), comp...)
	return append(append(dst, ' '), r.Message...)
}

// ParseRecord decodes one canonical text line. EventID is set to -1.
func ParseRecord(line string) (Record, error) {
	rest := line
	if n := len(rest); n > 0 && (rest[n-1] == '\n' || rest[n-1] == '\r') {
		rest = strings.TrimRight(rest, "\r\n")
	}
	// Four cuts at the first space, message last: no slice of parts.
	var head [4]string
	for i := range head {
		j := strings.IndexByte(rest, ' ')
		if j < 0 {
			return Record{}, fmt.Errorf("logs: short record %q", line)
		}
		head[i], rest = rest[:j], rest[j+1:]
	}
	ts, err := time.Parse(time.RFC3339Nano, head[0])
	if err != nil {
		return Record{}, fmt.Errorf("logs: bad timestamp in %q: %v", line, err)
	}
	sev, err := ParseSeverity(head[1])
	if err != nil {
		return Record{}, fmt.Errorf("logs: %v in %q", err, line)
	}
	loc, err := topology.Parse(head[2])
	if err != nil {
		return Record{}, fmt.Errorf("logs: %v in %q", err, line)
	}
	comp := head[3]
	if comp == "-" {
		comp = ""
	}
	return Record{
		Time:      ts,
		Severity:  sev,
		Location:  loc,
		Component: comp,
		Message:   rest,
		EventID:   -1,
	}, nil
}

// Window returns the sub-slice of time-sorted recs with Time in
// [from, to). It assumes recs is sorted by time.
func Window(recs []Record, from, to time.Time) []Record {
	lo := sort.Search(len(recs), func(i int) bool { return !recs[i].Time.Before(from) })
	hi := sort.Search(len(recs), func(i int) bool { return !recs[i].Time.Before(to) })
	return recs[lo:hi]
}

// FilterSeverity returns the records with severity >= min, preserving
// order.
func FilterSeverity(recs []Record, min Severity) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.Severity >= min {
			out = append(out, r)
		}
	}
	return out
}

// CountBySeverity tallies records per severity level.
func CountBySeverity(recs []Record) map[Severity]int {
	m := make(map[Severity]int)
	for _, r := range recs {
		m[r.Severity]++
	}
	return m
}

// Span returns the first and last timestamps in time-sorted recs, or zero
// times for an empty slice.
func Span(recs []Record) (first, last time.Time) {
	if len(recs) == 0 {
		return time.Time{}, time.Time{}
	}
	return recs[0].Time, recs[len(recs)-1].Time
}
