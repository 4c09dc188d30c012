package pipeline

import (
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/elsa-hpc/elsa/internal/logs"
)

// Input hardening: the syslog-class collectors a monitor daemon sits
// behind routinely deliver corrupt records, exact-duplicate bursts and
// multi-minute floods. The ingest stage therefore classifies every
// record before it can touch sampler or signal state:
//
//   - malformed records are quarantined — counted, a few sampled for
//     diagnosis, never fatal and never sampled into ticks;
//   - exact duplicates of a recently seen record are suppressed
//     (duplicate-burst dedup, a bounded ring of record fingerprints);
//   - when the open-tick buffer exceeds Config.MaxBuffered the sample
//     stage sheds new records instead of growing without bound, and
//     everything emitted while shedding is flagged Degraded.

// MaxMessageLen is the quarantine bound on message bodies. It matches
// the largest line the monitor daemon's scanner accepts; anything bigger
// did not come out of a sane log collector.
const MaxMessageLen = 1 << 20

// DefaultDedupWindow is how many recently accepted record fingerprints
// the duplicate filter remembers.
const DefaultDedupWindow = 4096

// DefaultMaxBuffered bounds how many records the open ticks may hold
// before overload shedding starts.
const DefaultMaxBuffered = 1 << 16

// quarantineSampleCap is how many quarantined records are kept verbatim
// for diagnosis; the rest are only counted.
const quarantineSampleCap = 8

// quarantineReason classifies a malformed record ("" = well-formed).
// The checks mirror the corruptions chaos injection produces and real
// collectors emit: zero/absurd timestamps (clock skew past any grace),
// non-UTF-8 or NUL-spliced message bytes, runaway message sizes, and
// event ids no organizer could have stamped.
func quarantineReason(rec *logs.Record) string {
	switch {
	case rec.Time.IsZero():
		return "zero timestamp"
	case rec.Time.Year() < 1970 || rec.Time.Year() > 9999:
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

// QuarantinedRecord is one sampled malformed record.
type QuarantinedRecord struct {
	Reason  string    `json:"reason"`
	Time    time.Time `json:"time"`
	Message string    `json:"message"` // truncated to 128 bytes
}

// quarantine counts malformed records and keeps a small sample.
type quarantine struct {
	mu     sync.Mutex
	sample []QuarantinedRecord
}

func (q *quarantine) add(reason string, rec *logs.Record) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.sample) >= quarantineSampleCap {
		return
	}
	msg := rec.Message
	if len(msg) > 128 {
		msg = msg[:128]
	}
	q.sample = append(q.sample, QuarantinedRecord{Reason: reason, Time: rec.Time, Message: msg})
}

func (q *quarantine) snapshot() []QuarantinedRecord {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]QuarantinedRecord(nil), q.sample...)
}

// Quarantined returns up to quarantineSampleCap sampled malformed
// records diverted by the ingest stage (the full count is in the source
// stage's Quarantined counter).
func (p *Pipeline) Quarantined() []QuarantinedRecord { return p.quar.snapshot() }

// dedupRing is a bounded set of the last-N accepted record fingerprints.
// Membership is by 64-bit FNV-1a over every record field; a collision
// (~2^-64 per pair) drops a legitimate record, which the monitor's loss
// model already tolerates — the paper's signals are per-tick counts, not
// individual messages.
type dedupRing struct {
	ring []uint64
	seen map[uint64]int // fingerprint -> occurrences currently in ring
	head int
	n    int
}

func newDedupRing(window int) *dedupRing {
	return &dedupRing{ring: make([]uint64, window), seen: make(map[uint64]int, window)}
}

// observe reports whether key duplicates a remembered record; novel keys
// are inserted, evicting the oldest fingerprint once full.
func (d *dedupRing) observe(key uint64) (dup bool) {
	if d.seen[key] > 0 {
		return true
	}
	if d.n == len(d.ring) {
		old := d.ring[d.head]
		if c := d.seen[old]; c <= 1 {
			delete(d.seen, old)
		} else {
			d.seen[old] = c - 1
		}
	} else {
		d.n++
	}
	d.ring[d.head] = key
	d.head = (d.head + 1) % len(d.ring)
	d.seen[key]++
	return false
}

// keys returns the remembered fingerprints oldest first (snapshot use).
func (d *dedupRing) keys() []uint64 {
	if d.n == 0 {
		return nil
	}
	out := make([]uint64, 0, d.n)
	start := (d.head - d.n + len(d.ring)) % len(d.ring)
	for i := 0; i < d.n; i++ {
		out = append(out, d.ring[(start+i)%len(d.ring)])
	}
	return out
}

// restore refills the ring from a snapshot taken by keys.
func (d *dedupRing) restore(keys []uint64) {
	for _, k := range keys {
		if len(d.ring) > 0 {
			d.observe(k)
		}
	}
}

// fingerprint hashes every record field with FNV-1a.
func fingerprint(rec *logs.Record) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(rec.Time.UnixNano()))
	mix(uint64(int64(rec.Severity)))
	mix(uint64(int64(rec.EventID)))
	mix(uint64(int64(rec.Location.Rack))<<40 ^ uint64(int64(rec.Location.Midplane))<<32 ^
		uint64(int64(rec.Location.NodeCard))<<24 ^ uint64(int64(rec.Location.Card))<<16 ^
		uint64(int64(rec.Location.Slot))<<8 ^ uint64(int64(rec.Location.Unit)))
	for i := 0; i < len(rec.Location.Flat); i++ {
		h ^= uint64(rec.Location.Flat[i])
		h *= prime64
	}
	for i := 0; i < len(rec.Component); i++ {
		h ^= uint64(rec.Component[i])
		h *= prime64
	}
	for i := 0; i < len(rec.Message); i++ {
		h ^= uint64(rec.Message[i])
		h *= prime64
	}
	return h
}

// ingest classifies one record at the source stage: quarantine
// malformed input, suppress exact duplicates, admit the rest. It must be
// called from a single goroutine (Feed, or the replay's template goroutine).
func (p *Pipeline) ingest(rec *logs.Record) (admitted bool) {
	c := &p.counters[stageSource]
	if reason := quarantineReason(rec); reason != "" {
		c.quarantined.Add(1)
		p.quar.add(reason, rec)
		return false
	}
	if p.dedup != nil && p.dedup.observe(fingerprint(rec)) {
		c.deduped.Add(1)
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
	for _, sup := range p.sups {
		if sup != nil && sup.Degraded() {
			return true
		}
	}
	return false
}
