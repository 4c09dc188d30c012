package pipeline

import (
	"strings"
	"unicode/utf8"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// Input hardening: the syslog-class collectors a monitor daemon sits
// behind routinely deliver corrupt records, sentinel timestamps and
// multi-minute floods. The ingest stage therefore classifies every
// record before it can touch sampler or signal state:
//
//   - malformed records are quarantined — counted, never fatal and never
//     sampled into ticks;
//   - a well-formed record stamped more than maxForwardJump ahead of the
//     stream is dropped as a straggler (sampler.tooFarAhead) instead of
//     closing every tick up to it;
//   - when the open-tick buffer exceeds Config.MaxBuffered the sample
//     stage sheds new records instead of growing without bound, and
//     everything emitted while shedding is flagged Degraded.

// MaxMessageLen is the quarantine bound on message bodies. It matches
// the largest line the monitor daemon's scanner accepts; anything bigger
// did not come out of a sane log collector.
const MaxMessageLen = 1 << 20

// DefaultMaxBuffered bounds how many records the open ticks may hold
// before overload shedding starts.
const DefaultMaxBuffered = 1 << 16

// quarantineReason classifies a malformed record ("" = well-formed).
// The checks mirror the corruptions chaos injection produces and real
// collectors emit: zero/absurd timestamps (clock skew past any grace),
// non-UTF-8 or NUL-spliced message bytes, runaway message sizes, and
// event ids no organizer could have stamped.
func quarantineReason(rec *logs.Record) string {
	switch y := rec.Time.Year(); {
	case rec.Time.IsZero():
		return "zero timestamp"
	case y < 1970 || y > 9999:
		return "timestamp out of range"
	case rec.EventID < -1:
		return "invalid event id"
	case len(rec.Message) > MaxMessageLen:
		return "oversized message"
	case strings.IndexByte(rec.Message, 0) >= 0:
		return "NUL byte in message"
	case !utf8.ValidString(rec.Message):
		return "invalid UTF-8 in message"
	}
	return ""
}

// ingest classifies one record at the source stage: malformed input is
// quarantined (counted, never sampled), the rest admitted.
func (p *Pipeline) ingest(rec *logs.Record) (admitted bool) {
	if quarantineReason(rec) != "" {
		p.counters[stageSource].quarantined.Add(1)
		return false
	}
	return true
}

// shouldShed implements overload shedding with hysteresis: shedding
// starts when the open ticks hold MaxBuffered records and stops once the
// buffer has drained to half. The flag is shared state so the match
// stage can flag predictions emitted while shedding.
func (p *Pipeline) shouldShed(buffered int) bool {
	max := p.cfg.MaxBuffered
	if max <= 0 {
		return false
	}
	if p.shedding.Load() {
		if buffered <= max/2 {
			p.shedding.Store(false)
			return false
		}
		return true
	}
	if buffered >= max {
		p.shedding.Store(true)
		return true
	}
	return false
}

// degradedNow reports whether the pipeline is currently in any degraded
// condition: overload shedding, or a stage breaker open.
func (p *Pipeline) degradedNow() bool {
	if p.shedding.Load() {
		return true
	}
	for _, st := range supervisedStages {
		if p.sups[st].Degraded() {
			return true
		}
	}
	return false
}
