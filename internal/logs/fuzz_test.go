package logs_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// refParseRecord is ParseRecord as it stood before the SplitN slice went:
// the frozen reference FuzzParseRecord compares the cut-based body with.
func refParseRecord(line string) (logs.Record, error) {
	parts := strings.SplitN(strings.TrimRight(line, "\r\n"), " ", 5)
	if len(parts) < 5 {
		return logs.Record{}, fmt.Errorf("logs: short record %q", line)
	}
	ts, err := time.Parse(time.RFC3339Nano, parts[0])
	if err != nil {
		return logs.Record{}, fmt.Errorf("logs: bad timestamp in %q: %v", line, err)
	}
	sev, err := logs.ParseSeverity(parts[1])
	if err != nil {
		return logs.Record{}, fmt.Errorf("logs: %v in %q", err, line)
	}
	loc, err := topology.Parse(parts[2])
	if err != nil {
		return logs.Record{}, fmt.Errorf("logs: %v in %q", err, line)
	}
	comp := parts[3]
	if comp == "-" {
		comp = ""
	}
	return logs.Record{Time: ts, Severity: sev, Location: loc, Component: comp, Message: parts[4], EventID: -1}, nil
}

// refString is Record.String as it stood when it went through fmt (the
// location's own fmt rendering is pinned in internal/topology).
func refString(r logs.Record) string {
	comp := r.Component
	if comp == "" {
		comp = "-"
	}
	return fmt.Sprintf("%s %s %s %s %s",
		r.Time.UTC().Format(time.RFC3339Nano), r.Severity, r.Location.String(), comp, r.Message)
}

// checkFormat fails unless AppendText and String both render r the way
// the fmt body did, with whatever dst held left in front.
func checkFormat(t *testing.T, r logs.Record) {
	t.Helper()
	want := refString(r)
	if got := r.String(); got != want {
		t.Fatalf("String() = %q, fmt rendering %q", got, want)
	}
	if got := string(r.AppendText([]byte("prefix|"))); got != "prefix|"+want {
		t.Fatalf("AppendText = %q, want prefix|%q", got, want)
	}
}

// FuzzParseRecord checks the canonical-codec invariant: any line that
// parses must re-encode to a line that parses to the same record, and no
// input may panic. It is also the differential of both halves of the
// codec against their frozen predecessors: the same record or the same
// error text from refParseRecord, the same line from refString.
func FuzzParseRecord(f *testing.F) {
	f.Add("2006-07-01T12:00:00Z SEVERE R00-M0-N0 KERNEL some message body")
	f.Add("2006-07-01T12:00:00.123456789Z INFO SYSTEM - hello")
	f.Add("2006-07-01T12:00:00Z FAILURE tg-c042 NFS rpc: bad tcp reclen 9 (non-terminal)")
	f.Add("garbage")
	f.Add("")
	f.Add("2006-07-01T12:00:00Z BOGUS R00 X msg")
	f.Add("2006-07-01T12:00:00+02:00 warn R100-M1-N15-I:J07-U11 - trailing space \r\n")
	f.Add("2006-07-01T12:00:00Z INFO R01  two spaces")
	f.Add("2006-07-01T12:00:00Z INFO R01 KERNEL")
	f.Add("2006-07-01T12:00:00Z INFO R0x-M0 KERNEL bad rack\n")
	f.Add("2006-07-01T12:00:00.5+02:00 Fatal R10-M1-N15-I:J07-U11 CIODB zone offset")
	f.Add("0000-01-01T0:00:00+00:01 wArn   ")
	f.Fuzz(func(t *testing.T, line string) {
		rec, err := logs.ParseRecord(line)
		ref, refErr := refParseRecord(line)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("ParseRecord(%q) error = %v, reference %v", line, err, refErr)
		}
		if err != nil {
			return
		}
		if rec.Time.String() != ref.Time.String() || !sameRecord(rec, ref) {
			t.Fatalf("ParseRecord(%q) = %+v, reference %+v", line, rec, ref)
		}
		checkFormat(t, rec)
		if y := rec.Time.UTC().Year(); y < 0 || y > 9999 {
			return // a zone offset carried the instant past what RFC 3339 can write
		}
		back, err := logs.ParseRecord(rec.String())
		if err != nil {
			t.Fatalf("re-encode failed: %v (from %q)", err, line)
		}
		if !sameRecord(back, rec) {
			t.Fatalf("round trip changed record: %+v vs %+v", back, rec)
		}
	})
}

// sameRecord compares two records field by field, the timestamps as
// instants: a line with a zone offset re-encodes in UTC.
func sameRecord(a, b logs.Record) bool {
	if !a.Time.Equal(b.Time) {
		return false
	}
	b.Time = a.Time
	return a == b
}

// TestAppendTextMatchesFmtRendering pins the fmt-free formatter to the
// fmt one on the generator corpus of both machine profiles and on the
// shapes no generator emits.
func TestAppendTextMatchesFmtRendering(t *testing.T) {
	start := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	for name, prof := range map[string]gen.Profile{"bgl": gen.BlueGeneL(), "mercury": gen.Mercury()} {
		recs := gen.New(prof, 3).Generate(start, 2*time.Hour).Records
		if len(recs) == 0 {
			t.Fatalf("%s: generator produced no records", name)
		}
		for _, r := range recs {
			checkFormat(t, r)
		}
	}
	at := start.Add(1234567 * time.Microsecond).In(time.FixedZone("x", 2*3600))
	for _, r := range []logs.Record{
		{},
		{Time: at, Severity: -1, Location: topology.System, Message: "negative severity"},
		{Time: at, Severity: 42, Location: topology.FlatNode("tg-c042"), Component: "NFS", Message: "unknown severity"},
		{Time: at, Severity: logs.Failure, Location: topology.Node(100, 1, 15, 7, 11), Message: ""},
		{Time: at, Severity: logs.Info, Location: topology.Location{Rack: 7, Midplane: -1}, Component: "-", Message: "a  b "},
	} {
		checkFormat(t, r)
	}
}
