package chaos

import (
	"math/rand"
)

// FleetTarget is the coordinator surface the fleet injector drives. The
// interface lives here (not in internal/fleet) so the fleet package can
// depend on chaos-free supervision primitives while its tests wire a
// real Coordinator straight in.
type FleetTarget interface {
	// ShardNames lists the logical shards, stable order.
	ShardNames() []string
	// Kill hard-crashes a shard's live incarnation; reports whether one
	// was live to kill.
	Kill(name string) bool
	// Stall arms a liveness-probe stall on the shard's next delivery.
	Stall(name string) bool
	// FailRestores arms the shard's next recoveries to fail up to n
	// times (bounded: re-arming does not stack beyond n).
	FailRestores(name string, n int)
	// Misroute arms a split-scope routing flap for the next n records.
	Misroute(n int)
	// Rebalance performs a planned snapshot-handoff succession.
	Rebalance(name string) error
}

// FleetConfig tunes the fleet injector. Probabilities are per routed
// record; zero disables the class. The zero config injects nothing.
type FleetConfig struct {
	// Seed seeds the injector's private RNG; a seed reproduces the whole
	// fault schedule exactly.
	Seed int64

	// Kill is the probability a record is preceded by a hard crash of a
	// random shard (shard-kill).
	Kill float64

	// Stall is the probability a random shard's next delivery wedges
	// past the liveness timeout (handoff-stall).
	Stall float64

	// RestoreFail is the probability a random shard's next recovery is
	// armed to fail RestoreFailMax times before succeeding, exercising
	// the retry/backoff path. RestoreFailMax <= 0 selects 1; keep it
	// below the coordinator's restore attempts per recovery round (the
	// fleet's handoffTries constant, 3) or recovery legitimately leaves
	// the shard down for the round.
	RestoreFail    float64
	RestoreFailMax int

	// Misroute is the probability the next record is offered to the
	// wrong shard (split-scope fault); the coordinator's ownership check
	// must self-heal it.
	Misroute float64

	// Rebalance is the probability a planned snapshot-handoff succession
	// is requested on a random shard.
	Rebalance float64
}

// FleetStats counts injected fleet faults by class.
type FleetStats struct {
	Kills        int64 // kills that found a live incarnation
	KillMisses   int64 // kills aimed at an already-down shard
	Stalls       int64
	RestoresArmd int64 // injected restore failures armed
	Misroutes    int64 // records armed to misroute
	Rebalances   int64
	RebalanceErr int64 // rebalance requests the coordinator refused
}

// FleetInjector drives seeded fleet-level faults — shard kills, handoff
// stalls, restore failures, split-scope misroutes, planned rebalances —
// against a FleetTarget, one Step per routed record. Like the stream
// injector it is exactly reproducible from its seed and is not safe for
// concurrent use.
type FleetInjector struct {
	target FleetTarget
	cfg    FleetConfig
	rng    *rand.Rand
	stats  FleetStats
}

// NewFleet wraps target. The zero cfg injects nothing.
func NewFleet(target FleetTarget, cfg FleetConfig) *FleetInjector {
	if cfg.RestoreFailMax <= 0 {
		cfg.RestoreFailMax = 1
	}
	return &FleetInjector{
		target: target,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Step draws this record's faults and applies them to the target; call
// it immediately before feeding each record. Draw order is fixed (kill,
// stall, restore-fail, misroute, rebalance) so a seed maps to one exact
// fault schedule regardless of which classes are enabled.
func (fi *FleetInjector) Step() {
	names := fi.target.ShardNames()
	if len(names) == 0 {
		return
	}
	pick := func() string { return names[fi.rng.Intn(len(names))] }
	if p := fi.rng.Float64(); fi.cfg.Kill > 0 && p < fi.cfg.Kill {
		if fi.target.Kill(pick()) {
			fi.stats.Kills++
		} else {
			fi.stats.KillMisses++
		}
	} else if fi.cfg.Kill > 0 {
		pick() // keep the name stream aligned whether or not the class fires
	}
	if p := fi.rng.Float64(); fi.cfg.Stall > 0 && p < fi.cfg.Stall {
		if fi.target.Stall(pick()) {
			fi.stats.Stalls++
		}
	} else if fi.cfg.Stall > 0 {
		pick()
	}
	if p := fi.rng.Float64(); fi.cfg.RestoreFail > 0 && p < fi.cfg.RestoreFail {
		n := 1 + fi.rng.Intn(fi.cfg.RestoreFailMax)
		fi.target.FailRestores(pick(), n)
		fi.stats.RestoresArmd += int64(n)
	} else if fi.cfg.RestoreFail > 0 {
		pick()
	}
	if p := fi.rng.Float64(); fi.cfg.Misroute > 0 && p < fi.cfg.Misroute {
		fi.target.Misroute(1)
		fi.stats.Misroutes++
	}
	if p := fi.rng.Float64(); fi.cfg.Rebalance > 0 && p < fi.cfg.Rebalance {
		if err := fi.target.Rebalance(pick()); err != nil {
			fi.stats.RebalanceErr++
		} else {
			fi.stats.Rebalances++
		}
	} else if fi.cfg.Rebalance > 0 {
		pick()
	}
}

// FleetStats returns the fault counts so far.
func (fi *FleetInjector) FleetStats() FleetStats { return fi.stats }
