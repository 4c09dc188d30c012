// Package fleet shards the online monitor across N supervised workers.
//
// Records are partitioned by topology scope — each record hashes by its
// location truncated to the configured scope (rack, midplane, ...) on a
// consistent-hash ring — so one shard owns all the evidence for a
// physical neighbourhood and its chain matching sees the same local
// stream a dedicated monitor would. A coordinator routes records,
// journals every delivery, stamps each shard's predictions with the shard
// and its per-shard sequence number, and supervises the shards'
// lifecycles.
//
// The headline property is fault tolerance of the fleet itself. Every
// shard incarnation runs under an internal/resilience supervisor with a
// liveness-probed request path; when an incarnation panics, wedges, or
// is killed, the coordinator restores a successor from the shard's last
// snapshot + recorded ingest offset and replays the journaled suffix —
// with jittered-exponential retry backoff and breaker gating — so the
// merged prediction stream is exactly the clean run's stream, with the
// catch-up predictions flagged Degraded and every gap entry accounted.
// A planned Handoff drains the live worker through a fresh snapshot
// first, so succession is byte-identical with no degraded span.
//
// A call into a shard is one send and one receive on the incarnation's
// two channels; a watchdog answers an overdue call on the same reply
// channel, and a compare-and-swap decides whether it or the worker
// sends, so every call gets exactly one message.
//
// Semantics note: partitioning changes what each shard's statistics see
// (per-scope streams instead of the global stream), so an N-shard fleet
// is a partitioned view, not a bit-replica of a single monitor — except
// for N=1, which is proven byte-identical, failover included. Nothing
// recombines a chain whose events land on two shards: it matches on
// neither. See DESIGN.md §15.
//
// The Coordinator is not safe for concurrent use: one goroutine feeds
// it, mirroring pipeline.Session's synchronous driver contract.
package fleet

import (
	"time"

	"github.com/elsa-hpc/elsa/internal/predict"
	"github.com/elsa-hpc/elsa/internal/resilience"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// Fleet defaults.
const (
	DefaultShards        = 4
	DefaultSnapshotEvery = 100_000
	DefaultFeedTimeout   = 2 * time.Second
)

// handoffTries is how many restore attempts one recovery round makes
// before leaving the shard down (the next delivery starts a new round,
// breaker permitting). The delay between attempts is the supervision
// default backoff: resilience.DefaultBaseBackoff doubling up to
// DefaultMaxBackoff, jittered by DefaultJitter.
const handoffTries = 3

// HandoffPolicy is what a test substitutes in the coordinator's
// restore/handoff retry loop.
type HandoffPolicy struct {
	// Seed seeds the backoff jitter; shard i draws from Seed+i.
	Seed int64
	// Sleep injects the delay implementation; nil selects time.Sleep.
	// Tests pass a recorder so recovery runs without real waiting.
	Sleep func(time.Duration)
}

// Config tunes a fleet.
type Config struct {
	// Shards is the logical shard count. <= 0 selects DefaultShards.
	Shards int
	// Scope is the partitioning granularity: records hash by their
	// location truncated to this scope. The zero value partitions at
	// node scope (finest); rack or midplane match the paper's
	// propagation neighbourhoods.
	Scope topology.Scope
	// SnapshotEvery is how many journal entries a shard absorbs between
	// automatic snapshots (the failover replay bound). 0 selects
	// DefaultSnapshotEvery; negative disables automatic snapshots.
	SnapshotEvery int
	// FeedTimeout bounds every per-record synchronous worker call; a
	// miss is a failed liveness probe, detected within 1.25×FeedTimeout,
	// and the incarnation is abandoned. Calls that do more than one
	// record's work scale it: Close's flush and a snapshot get 4×. <= 0
	// selects DefaultFeedTimeout.
	FeedTimeout time.Duration
	// Handoff seeds and fakes the restore retry loop's delays.
	Handoff HandoffPolicy
	// Supervision is the per-shard breaker policy; shard i runs under
	// Seed+i so backoff schedules are decorrelated but reproducible.
	Supervision resilience.Policy
}

// normalised fills config defaults.
func (cfg Config) normalised() Config {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.FeedTimeout <= 0 {
		cfg.FeedTimeout = DefaultFeedTimeout
	}
	if cfg.Handoff.Sleep == nil {
		cfg.Handoff.Sleep = func(d time.Duration) { time.Sleep(d) }
	}
	return cfg
}

// Merged is one prediction in the fleet's merged stream: the shard that
// produced it and its position in that shard's prediction sequence.
// Within one shard Seq is gapless and strictly increasing — the exactly-
// once guarantee the failover replay's duplicate-skip preserves.
type Merged struct {
	Shard string
	Seq   int64
	predict.Prediction
}

// ShardStats is one slot's accounting snapshot.
type ShardStats struct {
	Name   string
	State  string // "active", "down" or "closed"
	Scopes int    // scope keys this shard owns (of those seen so far)

	Entries  int64 // journal entries delivered (records + advances)
	Records  int64
	Advances int64

	Predictions int64 // predictions merged into the fleet's stream
	Degraded    int64 // of those, catch-up predictions flagged Degraded

	Gaps       int64 // outage windows closed by failover
	GapEntries int64 // entries that arrived while no incarnation was live

	Snapshots       int64
	SnapshotFails   int64
	JournalLen      int // entries currently replayable
	Handoffs        int64
	Failovers       int64
	RestoreFailures int64
	RecoveryDenied  int64 // recovery rounds refused by the open breaker
	ReplayShort     int64 // accounting violations (replay produced too few predictions); must be 0
	LostEntries     int64 // entries never served by any incarnation (unrecoverable shard)
	FlushFailures   int64 // Close flushes that failed (the shard's open-tick tail is missing)

	Supervisor resilience.Stats
}

// Stats is a point-in-time snapshot of the whole fleet.
type Stats struct {
	Shards      []ShardStats
	Scopes      int   // distinct scope keys routed so far
	Records     int64 // records fed
	Predictions int64
	Degraded    int64
	Lost        int64
}

// Result is what Close returns: the flushed tail of the merged stream,
// each shard's full run result, and the final accounting.
type Result struct {
	Tail     []Merged
	PerShard map[string]*predict.Result
	Stats    Stats
}
