package logs_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// crossCodecRecords is a generated day of both machine profiles plus the
// shapes a generator seldom or never emits: flat hosts, the System
// location, every location depth, a negative unit, the "-" and empty
// components, an empty message and sub-second times at both ends of the
// year range.
func crossCodecRecords(t testing.TB) []logs.Record {
	t.Helper()
	start := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	var recs []logs.Record
	for name, prof := range map[string]gen.Profile{"bgl": gen.BlueGeneL(), "mercury": gen.Mercury()} {
		day := gen.New(prof, 5).Generate(start, 24*time.Hour).Records
		if len(day) == 0 {
			t.Fatalf("%s: generator produced no records", name)
		}
		recs = append(recs, day...)
	}
	at := start.Add(123456789 * time.Nanosecond)
	for _, r := range []logs.Record{
		{Time: at, Severity: logs.Info, Location: topology.System, Component: "-", Message: "system, dash component"},
		{Time: at, Severity: logs.Warning, Location: topology.FlatNode("tg-c042"), Message: "flat host, no component"},
		{Time: at, Severity: logs.Error, Location: topology.MustParse("R05"), Component: "MMCS", Message: "rack"},
		{Time: at, Severity: logs.Severe, Location: topology.MustParse("R05-M1"), Component: "MMCS", Message: "midplane"},
		{Time: at, Severity: logs.Failure, Location: topology.MustParse("R05-M1-N12"), Component: "KERNEL", Message: ""},
		{Time: at, Severity: logs.Failure, Location: topology.MustParse("R63-M1-N15-L:J18-U11"), Component: "LINKCARD", Message: "link card"},
		{Time: at, Severity: logs.Failure, Location: topology.MustParse("R07-M0-N4-S:J00-U-1"), Component: "MMCS", Message: "unit -1"},
		{Time: at, Severity: logs.Failure, Location: topology.MustParse("R99-M9-N15-C:J99-U-9"), Component: "MMCS", Message: "widest fields"},
		{Time: at, Severity: logs.Info, Location: topology.MustParse("R00-M0-N0-C:J00-U99"), Component: "MMCS", Message: "unit 99"},
		{Time: at, Severity: logs.Info, Location: topology.FlatNode("R2"), Component: "a\tb", Message: " spaced  message "},
		{Time: at.In(time.FixedZone("x", -7*3600)), Severity: logs.Info, Location: topology.MustParse("R00-M0-N0-I:J02-U01"), Component: "CIODB", Message: "zone offset"},
		{Time: time.Date(0, 1, 1, 0, 0, 0, 1, time.UTC), Severity: logs.Info, Location: topology.System, Message: "first nanosecond of year 0"},
		{Time: time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), Severity: logs.Info, Location: topology.System, Message: "last of year 9999"},
		{Time: time.Date(1677, 1, 1, 0, 0, 0, 5e8, time.UTC), Severity: logs.Info, Location: topology.System, Message: "before UnixNano's range"},
	} {
		recs = append(recs, r)
	}
	return recs
}

// TestBinaryCodecMatchesTextCodec: a record through the binary codec is
// the record the text codec delivers, field for field, and its payload
// re-encodes to itself.
func TestBinaryCodecMatchesTextCodec(t *testing.T) {
	buf := []byte("kept")
	for _, r := range crossCodecRecords(t) {
		want, err := logs.ParseRecord(r.String())
		if err != nil {
			t.Fatalf("text codec rejects %q: %v", r, err)
		}
		buf = r.AppendBinary(buf[:4])
		if string(buf[:4]) != "kept" {
			t.Fatalf("AppendBinary overwrote dst's prefix")
		}
		payload := buf[4:]
		got, err := logs.ParseBinary(payload)
		if err != nil {
			t.Fatalf("binary codec rejects %q: %v", r, err)
		}
		if got != want {
			t.Fatalf("binary codec gives %+v, text codec %+v", got, want)
		}
		if again := got.AppendBinary(nil); !bytes.Equal(again, payload) {
			t.Fatalf("decoded %q re-encodes to % x, want % x", r, again, payload)
		}
	}
}

// TestBinaryRejectsWhatTextRejects: a record the text codec cannot carry
// — it rejects the record's line or reads back another record — encodes
// to a payload the binary decoder rejects, so a writer never fails and a
// reader quarantines it either way.
func TestBinaryRejectsWhatTextRejects(t *testing.T) {
	at := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	for _, r := range uncarriedRecords(at) {
		r.EventID = -1 // as ParseRecord sets it
		if back, err := logs.ParseRecord(r.String()); err == nil && back == r {
			t.Fatalf("text codec carries %q", r)
		}
		if rec, err := logs.ParseBinary(r.AppendBinary(nil)); !errors.Is(err, logs.ErrBinaryRecord) {
			t.Fatalf("binary codec gives %+v, %v for %q; want ErrBinaryRecord", rec, err, r)
		}
	}
	line := []byte(logs.Record{Time: at, Location: topology.System, Message: "text"}.String())
	if _, err := logs.ParseBinary(line); !errors.Is(err, logs.ErrBinaryVersion) {
		t.Fatalf("a text line decodes with %v, want ErrBinaryVersion", err)
	}
}

// uncarriedRecords are records the text codec rejects or alters, one per
// way of doing so.
func uncarriedRecords(at time.Time) []logs.Record {
	flat := func(host string) topology.Location { return topology.FlatNode(host) }
	node := topology.Node
	return []logs.Record{
		{Time: at, Severity: -1, Location: topology.System, Message: "negative severity"},
		{Time: at, Severity: 42, Location: topology.System, Message: "unknown severity"},
		{Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Location: topology.System, Message: "year 10000"},
		{Time: time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC), Location: topology.System, Message: "year -1"},
		{Time: at, Location: topology.Location{Rack: 1, Midplane: 0, NodeCard: 2, Card: 'X', Slot: 3, Unit: 4}, Message: "card X"},
		{Time: at, Location: topology.Location{Rack: 100, Midplane: -1, NodeCard: -1, Slot: -1, Unit: -1}, Message: "rack 100"},
		{Time: at, Location: topology.Location{Rack: 1, Midplane: 12, NodeCard: -1, Slot: -1, Unit: -1}, Message: "midplane 12"},
		{Time: at, Location: node(1, 0, 2, 100, 0), Message: "slot 100"},
		{Time: at, Location: node(1, 0, 2, 3, -10), Message: "unit -10"},
		{Time: at, Location: node(1, 0, 2, 3, 100), Message: "unit 100"},
		{Time: at, Location: flat("R2D2"), Message: "host that reads as a bad rack code"},
		{Time: at, Location: flat("R12"), Message: "host that reads as rack 12"},
		{Time: at, Location: flat("SYSTEM"), Message: "host that reads as System"},
		{Time: at, Location: flat("NULL"), Message: "host NULL"},
		{Time: at, Location: flat("-"), Message: "host -"},
		{Time: at, Location: flat("tg c042"), Message: "host with a space"},
		{Time: at, Location: flat("tg\tc042"), Message: "host with a tab"},
		{Time: at, Location: flat("tg-c042\v"), Message: "host with trailing white space"},
		{Time: at, Location: topology.System, Component: "MM CS", Message: "component with a space"},
		{Time: at, Location: topology.System, Message: "message ending in a newline\n"},
		{Time: at, Location: topology.System, Message: "message ending in a carriage return\r"},
	}
}

// FuzzFramePayload: arbitrary bytes as a frame payload give an error or a
// record that re-encodes to exactly those bytes — the decoder accepts
// only canonical payloads — and that the text codec carries unchanged,
// and never panic.
func FuzzFramePayload(f *testing.F) {
	for i, r := range crossCodecRecords(f) {
		if i%5000 == 0 {
			f.Add(r.AppendBinary(nil))
		}
	}
	at := time.Date(2006, 7, 1, 12, 0, 0, 5e8, time.UTC)
	for _, r := range []logs.Record{
		{Time: at, Severity: logs.Severe, Location: topology.MustParse("R00-M0-N0-C:J02-U01"), Component: "KERNEL", Message: "some message body"},
		{Time: at, Severity: logs.Info, Location: topology.MustParse("R00-M1"), Message: "midplane"},
		{Time: at, Severity: logs.Failure, Location: topology.FlatNode("tg-c042"), Component: "NFS", Message: "rpc: bad tcp reclen 9"},
		{Time: at, Severity: logs.Info, Location: topology.System, Component: "-", Message: ""},
		{Time: at, Severity: 9, Location: topology.System, Message: "unknown severity"},
	} {
		f.Add(r.AppendBinary(nil))
	}
	for _, r := range uncarriedRecords(at) {
		f.Add(r.AppendBinary(nil))
	}
	f.Add([]byte("2006-07-01T12:00:00Z SEVERE R00-M0-N0 KERNEL some message body"))
	f.Add([]byte{})
	f.Add([]byte{logs.BinaryVersion})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := logs.ParseBinary(payload)
		if err != nil {
			if !errors.Is(err, logs.ErrBinaryRecord) && !errors.Is(err, logs.ErrBinaryVersion) {
				t.Fatalf("ParseBinary error %v is neither ErrBinaryRecord nor ErrBinaryVersion", err)
			}
			if (len(payload) > 0 && payload[0] != logs.BinaryVersion) != errors.Is(err, logs.ErrBinaryVersion) {
				t.Fatalf("ParseBinary(% x) = %v: the version error is for a wrong first byte only", payload, err)
			}
			return
		}
		if again := rec.AppendBinary(nil); !bytes.Equal(again, payload) {
			t.Fatalf("ParseBinary(% x) = %+v, which re-encodes to % x", payload, rec, again)
		}
		if rec.EventID != -1 {
			t.Fatalf("decoded EventID %d, want -1", rec.EventID)
		}
		if back, err := logs.ParseRecord(rec.String()); err != nil || back != rec {
			t.Fatalf("ParseBinary(% x) = %+v, which the text codec reads back as %+v, %v", payload, rec, back, err)
		}
	})
}
