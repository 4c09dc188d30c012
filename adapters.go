package elsa

import (
	"io"
	"time"

	"github.com/elsa-hpc/elsa/internal/adapters"
)

// LogFormat names a supported input log format.
type LogFormat = adapters.Format

// Supported input formats.
const (
	// FormatCanonical is this repository's text format.
	FormatCanonical = adapters.Canonical
	// FormatBGL is the Blue Gene/L RAS format from the CFDR dataset.
	FormatBGL = adapters.BGL
	// FormatSyslog is classic BSD syslog.
	FormatSyslog = adapters.Syslog
)

// ParseLogFormat decodes a format name ("canonical", "bgl", "syslog").
func ParseLogFormat(s string) (LogFormat, error) { return adapters.ParseFormat(s) }

// ReadLogFormat decodes records from r in the given format. Malformed
// lines are skipped (and counted) rather than failing the whole import —
// archived production logs always contain stray lines. The year parameter
// completes syslog timestamps (ignored by other formats; zero means the
// current year).
func ReadLogFormat(r io.Reader, format LogFormat, year int) (records []Record, dropped int, err error) {
	ar := adapters.NewReader(r, format, adapters.SyslogConfig{Year: year, Location: time.UTC})
	ar.SkipMalformed = true
	records, err = ar.ReadAll()
	return records, ar.Dropped, err
}

// LineDecoder returns the decoder of one line of the format — what a
// daemon reading its own stdin hands the ingest line backend. year
// completes syslog timestamps, as for ReadLogFormat.
func LineDecoder(format LogFormat, year int) (func(line string) (Record, error), error) {
	return adapters.LineParser(format, adapters.SyslogConfig{Year: year, Location: time.UTC})
}
