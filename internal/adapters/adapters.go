// Package adapters converts real system-log formats into the canonical
// record model, so the pipeline runs unchanged on actual machine data when
// it is available:
//
//   - the Blue Gene/L RAS format published in the Computer Failure Data
//     Repository (the dataset the paper analyses), and
//   - classic BSD syslog (the format of Mercury-era Linux clusters).
package adapters

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// Format names a supported log format.
type Format int

// Supported formats.
const (
	// Canonical is this repository's own text format.
	Canonical Format = iota
	// BGL is the Blue Gene/L RAS log format from the CFDR dataset.
	BGL
	// Syslog is classic BSD syslog (RFC 3164 timestamp, host, tag).
	Syslog
)

// String names the format.
func (f Format) String() string {
	switch f {
	case Canonical:
		return "canonical"
	case BGL:
		return "bgl"
	case Syslog:
		return "syslog"
	default:
		return "unknown"
	}
}

// ParseFormat decodes a format name.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "canonical", "":
		return Canonical, nil
	case "bgl", "ras":
		return BGL, nil
	case "syslog":
		return Syslog, nil
	default:
		return Canonical, fmt.Errorf("adapters: unknown format %q", s)
	}
}

// bglTimeLayout is the high-resolution timestamp of RAS lines,
// e.g. "2005-06-03-15.42.50.363779".
const bglTimeLayout = "2006-01-02-15.04.05.000000"

// ParseBGL decodes one Blue Gene/L RAS line:
//
//	ALERT SECONDS DATE NODE TIMESTAMP NODE TYPE COMPONENT LEVEL MESSAGE...
//
// e.g.
//
//   - 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 2005-06-03-15.42.50.363779 R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected
func ParseBGL(line string) (logs.Record, error) {
	parts := strings.SplitN(line, " ", 10)
	if len(parts) < 10 {
		return logs.Record{}, fmt.Errorf("adapters: short RAS line %q", line)
	}
	ts, err := time.Parse(bglTimeLayout, parts[4])
	if err != nil {
		return logs.Record{}, fmt.Errorf("adapters: bad RAS timestamp %q: %v", parts[4], err)
	}
	loc, err := topology.Parse(parts[3])
	if err != nil {
		return logs.Record{}, fmt.Errorf("adapters: bad RAS location %q: %v", parts[3], err)
	}
	sev, err := parseBGLSeverity(parts[8])
	if err != nil {
		return logs.Record{}, err
	}
	return logs.Record{
		Time:      ts.UTC(),
		Severity:  sev,
		Location:  loc,
		Component: parts[7],
		Message:   parts[9],
		EventID:   -1,
	}, nil
}

func parseBGLSeverity(s string) (logs.Severity, error) {
	switch strings.ToUpper(s) {
	case "INFO", "DEBUG":
		return logs.Info, nil
	case "WARNING":
		return logs.Warning, nil
	case "ERROR":
		return logs.Error, nil
	case "SEVERE":
		return logs.Severe, nil
	case "FATAL", "FAILURE":
		return logs.Failure, nil
	default:
		return logs.Info, fmt.Errorf("adapters: unknown RAS level %q", s)
	}
}

// SyslogConfig carries the context a bare syslog line lacks.
type SyslogConfig struct {
	// Year completes the RFC 3164 timestamp (which has none). Zero means
	// the current year.
	Year int
	// Location resolves the wall-clock timestamps (default UTC).
	Location *time.Location
}

// ParseSyslog decodes one classic syslog line:
//
//	Jun  3 15:42:50 tg-c042 kernel: nfs server not responding
//
// The tag (up to the first ':') becomes the component; severity is
// inferred from the message text since RFC 3164 priority prefixes are
// rarely preserved in archived cluster logs.
func ParseSyslog(line string, cfg SyslogConfig) (logs.Record, error) {
	if cfg.Location == nil {
		cfg.Location = time.UTC
	}
	if len(line) < 16 {
		return logs.Record{}, fmt.Errorf("adapters: short syslog line %q", line)
	}
	ts, err := time.ParseInLocation(time.Stamp, line[:15], cfg.Location)
	if err != nil {
		return logs.Record{}, fmt.Errorf("adapters: bad syslog timestamp in %q: %v", line, err)
	}
	year := cfg.Year
	if year == 0 {
		year = time.Now().Year()
	}
	ts = ts.AddDate(year, 0, 0)
	rest := strings.TrimSpace(line[15:])
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return logs.Record{}, fmt.Errorf("adapters: syslog line missing host: %q", line)
	}
	host := rest[:sp]
	body := strings.TrimSpace(rest[sp+1:])
	component := ""
	if c := strings.IndexByte(body, ':'); c > 0 && c < 32 && !strings.ContainsAny(body[:c], " \t") {
		component = strings.ToUpper(strings.TrimRight(body[:c], "[]0123456789"))
		body = strings.TrimSpace(body[c+1:])
	}
	loc, err := topology.Parse(host)
	if err != nil {
		return logs.Record{}, fmt.Errorf("adapters: bad syslog host %q: %v", host, err)
	}
	return logs.Record{
		Time:      ts.UTC(),
		Severity:  inferSeverity(body),
		Location:  loc,
		Component: component,
		Message:   body,
		EventID:   -1,
	}, nil
}

// inferSeverity grades a syslog message by its text, the heuristic one
// has to use when the priority field was stripped during archiving.
func inferSeverity(msg string) logs.Severity {
	m := strings.ToLower(msg)
	switch {
	case strings.Contains(m, "panic"), strings.Contains(m, "fatal"),
		strings.Contains(m, "fail"):
		return logs.Failure
	case strings.Contains(m, "critical"), strings.Contains(m, "severe"):
		return logs.Severe
	case strings.Contains(m, "error"), strings.Contains(m, "i/o"):
		return logs.Error
	case strings.Contains(m, "warn"), strings.Contains(m, "not responding"),
		strings.Contains(m, "timed out"), strings.Contains(m, "timeout"):
		return logs.Warning
	default:
		return logs.Info
	}
}

// LineParser returns the decoder of one line of the format, for callers
// that frame the lines themselves (Reader here, the ingest line backend
// behind the daemons' stdin).
func LineParser(format Format, syslogCfg SyslogConfig) (func(line string) (logs.Record, error), error) {
	switch format {
	case Canonical:
		return logs.ParseRecord, nil
	case BGL:
		return ParseBGL, nil
	case Syslog:
		return func(line string) (logs.Record, error) { return ParseSyslog(line, syslogCfg) }, nil
	default:
		return nil, fmt.Errorf("adapters: unsupported format %v", format)
	}
}

// Reader streams records from any supported format.
type Reader struct {
	sc       *bufio.Scanner
	parse    func(line string) (logs.Record, error)
	parseErr error // the format has no parser: every Next fails with it
	line     int
	// SkipMalformed drops undecodable lines instead of failing; Dropped
	// counts them. Real archived logs always contain stray lines.
	SkipMalformed bool
	Dropped       int
}

// NewReader wraps r for the given format.
func NewReader(r io.Reader, format Format, syslogCfg SyslogConfig) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	parse, err := LineParser(format, syslogCfg)
	return &Reader{sc: sc, parse: parse, parseErr: err}
}

// Next returns the next record or io.EOF.
func (r *Reader) Next() (logs.Record, error) {
	if r.parseErr != nil {
		return logs.Record{}, r.parseErr
	}
	for r.sc.Scan() {
		r.line++
		line := strings.TrimRight(r.sc.Text(), "\r\n")
		if line == "" || line[0] == '#' {
			continue
		}
		rec, err := r.parse(line)
		if err != nil {
			if r.SkipMalformed {
				r.Dropped++
				continue
			}
			return logs.Record{}, fmt.Errorf("line %d: %w", r.line, err)
		}
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return logs.Record{}, err
	}
	return logs.Record{}, io.EOF
}

// ReadAll drains the reader.
func (r *Reader) ReadAll() ([]logs.Record, error) {
	var out []logs.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
