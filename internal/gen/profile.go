// Package gen synthesises HPC system logs with known ground truth. It
// stands in for the gated evaluation data (Blue Gene/L RAS logs and NCSA
// Mercury logs): a machine profile describes background daemons and fault
// archetypes, and the generator produces a time-ordered record stream plus
// the list of injected failures the prediction experiments score against.
//
// The archetypes encode the failure behaviours the paper reports:
//
//   - memory faults announce themselves with a burst of correctable-error
//     messages about a minute ahead and propagate within a midplane;
//   - node-card faults produce warning/severe cascades up to an hour ahead
//     and stay on one node card;
//   - network/NFS faults strike near-simultaneously on many nodes with
//     weak precursors (and generate the message bursts that stress the
//     online analysis);
//   - cache faults have unreliable precursors seconds ahead;
//   - CIODB/job-control faults emit everything at the same instant (no
//     prediction window);
//   - restart and multiline sequences are correlated but informational.
//
// Generation sits behind every experiment and every benchmark set-up, so
// its cost is kept to one allocation per substituted message: a Generator
// compiles each message template once into literal runs and variable
// fields and appends every message into one reused buffer, which becomes
// the record's string. Records collect in fixed-size blocks copied once
// into a slice of the exact length. The rng draws are the ones the old
// split, format and re-join code made, in the same order, so a seed gives
// the same log byte for byte; that code is kept as the frozen reference
// in ref_test.go (TestGenerateMatchesFrozenReference, FuzzSubstitute).
// Pre-sizing the record slice from the profile was measured and rejected:
// it put the benchmark's peak RSS past its bound.
package gen

import (
	"time"

	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/topology"
)

// DaemonSpec describes one background message source.
type DaemonSpec struct {
	Name      string
	Component string
	Message   string
	Severity  logs.Severity

	// Period > 0 makes the daemon strictly periodic; otherwise it emits
	// Poisson chatter at Rate events per second.
	Period time.Duration
	Rate   float64

	// PerNode daemons emit from a fresh random node each time; otherwise
	// they emit from the fixed service location.
	PerNode bool

	// PerRack daemons emit one periodic message per rack (heartbeats);
	// each rack keeps its own phase. Requires Period > 0. A fault with
	// SilenceRack set mutes the origin rack's PerRack daemons — the
	// paper's "node crash = lack of messages" syndrome.
	PerRack bool
}

// EventSpec is one message of a fault cascade.
type EventSpec struct {
	Message   string
	Component string
	Severity  logs.Severity

	// Delay is the mean gap after the previous cascade event; Jitter is
	// the lognormal sigma applied to it (0 = deterministic).
	Delay  time.Duration
	Jitter float64

	// Burst emits this many copies of the message (minimum 1).
	Burst int

	// Scope places copies within this scope of the fault origin; FanOut
	// is how many distinct locations are hit (minimum 1 = origin only).
	Scope  topology.Scope
	FanOut int
}

// FaultArchetype describes one failure mode of the machine.
type FaultArchetype struct {
	Name     string // unique key, e.g. "memory"
	Category string // reporting category for the recall breakdown

	// MTBF is the system-wide mean time between faults of this type.
	MTBF time.Duration

	// Precursors is the symptom cascade; PrecursorProb is the probability
	// that a given fault instance shows it at all (unheralded instances
	// are unpredictable by construction).
	Precursors    []EventSpec
	PrecursorProb float64

	// Final is the failure (or terminal) event of the cascade.
	Final EventSpec

	// IsFailure distinguishes real faults from informational sequences
	// (restarts, multiline messages) that correlate but predict nothing.
	IsFailure bool

	// OriginScope is the granularity at which the fault strikes: a node,
	// a node card, or the whole system (service-level faults).
	OriginScope topology.Scope

	// SilenceRack mutes the origin rack's PerRack daemons for this long,
	// starting at the fault instant: the crash's only early symptom is
	// the missing heartbeats.
	SilenceRack time.Duration
}

// Profile bundles a machine with its behaviour.
type Profile struct {
	Name       string
	Machine    topology.Machine
	Daemons    []DaemonSpec
	Archetypes []FaultArchetype
}

// BlueGeneL returns the Blue Gene/L-style profile used by most
// experiments. Message texts follow the templates listed in the paper's
// tables.
func BlueGeneL() Profile {
	m := topology.BlueGeneL()
	return Profile{
		Name:    "bgl",
		Machine: m,
		Daemons: []DaemonSpec{
			{Name: "health", Component: "MMCS", Severity: logs.Info,
				Message: "node health check completed for partition d+", Period: 5 * time.Minute},
			{Name: "envpoll", Component: "MONITOR", Severity: logs.Info,
				Message: "environmental poll fan speed reading d+ rpm", Period: 10 * time.Minute},
			{Name: "clockpoll", Component: "MONITOR", Severity: logs.Info,
				Message: "clock card heartbeat sequence d+ acknowledged", Period: 7 * time.Minute},
			{Name: "jobchatter", Component: "CIODB", Severity: logs.Info,
				Message: "job d+ state change recorded", Rate: 0.05, PerNode: false},
			{Name: "kernelchatter", Component: "KERNEL", Severity: logs.Info,
				Message: "packet retransmit count d+", Rate: 0.12, PerNode: true},
			{Name: "console", Component: "KERNEL", Severity: logs.Info,
				Message: "console output flushed to buffer d+", Rate: 0.08, PerNode: true},
			{Name: "torusstats", Component: "KERNEL", Severity: logs.Info,
				Message: "torus receiver * acked d+ packets", Rate: 0.04, PerNode: true},
			{Name: "idopackets", Component: "IDO", Severity: logs.Info,
				Message: "ido packet statistics: d+ sent d+ received", Period: 15 * time.Minute},
			{Name: "partition", Component: "MMCS", Severity: logs.Info,
				Message: "partition * boot sequence completed in d+ seconds", Rate: 0.01},
			{Name: "ciodbheartbeat", Component: "CIODB", Severity: logs.Info,
				Message: "ciodb heartbeat ok connections d+", Period: 4 * time.Minute},
			{Name: "envtemp", Component: "MONITOR", Severity: logs.Info,
				Message: "ambient temperature reading d+ dC on rack *", Rate: 0.02, PerNode: true},
			{Name: "linkpoll", Component: "LINKCARD", Severity: logs.Info,
				Message: "link card poll status ok port d+", Rate: 0.03, PerNode: true},
			{Name: "rackwatch", Component: "MONITOR", Severity: logs.Info,
				Message: "rack watchdog heartbeat ok slot d+", Period: 2 * time.Minute, PerRack: true},
		},
		Archetypes: []FaultArchetype{
			{
				Name: "memory", Category: "memory", MTBF: 4 * time.Hour,
				PrecursorProb: 0.85, IsFailure: true, OriginScope: topology.ScopeNode,
				Precursors: []EventSpec{
					{Message: "correctable error detected in directory 0xd+", Component: "KERNEL",
						Severity: logs.Warning, Delay: 0, Burst: 4},
					{Message: "ddr failing data registers: d+ d+", Component: "KERNEL",
						Severity: logs.Error, Delay: 25 * time.Second, Jitter: 0.25},
					{Message: "number of correctable errors detected in l3 edrams d+", Component: "KERNEL",
						Severity: logs.Warning, Delay: 20 * time.Second, Jitter: 0.25},
				},
				Final: EventSpec{Message: "uncorrectable error detected in directory 0xd+", Component: "KERNEL",
					Severity: logs.Failure, Delay: 45 * time.Second, Jitter: 0.25,
					Scope: topology.ScopeMidplane, FanOut: 3},
			},
			{
				Name: "nodecard", Category: "nodecard", MTBF: 9 * time.Hour,
				PrecursorProb: 0.92, IsFailure: true, OriginScope: topology.ScopeNodeCard,
				Precursors: []EventSpec{
					{Message: "endserviceaction is restarting the nodecards in midplane * as part of service action d+",
						Component: "SERVICE", Severity: logs.Warning, Delay: 0},
					{Message: "node card vpd check: node in processor card slot d+ do not match. vpd ecid d+ found d+",
						Component: "SERVICE", Severity: logs.Severe, Delay: 14 * time.Minute, Jitter: 0.1},
					{Message: "link card power module d+ is not accessible",
						Component: "LINKCARD", Severity: logs.Severe, Delay: 18 * time.Minute, Jitter: 0.1},
				},
				Final: EventSpec{Message: "no power module d+ found on link card; temperature over limit",
					Component: "LINKCARD", Severity: logs.Failure, Delay: 25 * time.Minute, Jitter: 0.1},
			},
			{
				Name: "network", Category: "network", MTBF: 3 * time.Hour,
				PrecursorProb: 0.3, IsFailure: true, OriginScope: topology.ScopeRack,
				Precursors: []EventSpec{
					{Message: "rts: tree/torus link training failed wire d+", Component: "KERNEL",
						Severity: logs.Warning, Delay: 0, Burst: 2},
				},
				Final: EventSpec{Message: "rpc: bad tcp reclen d+ (non-terminal)", Component: "NFS",
					Severity: logs.Failure, Delay: 30 * time.Second, Jitter: 0.2,
					Burst: 2, Scope: topology.ScopeRack, FanOut: 40},
			},
			{
				Name: "cache", Category: "cache", MTBF: 150 * time.Minute,
				PrecursorProb: 0.34, IsFailure: true, OriginScope: topology.ScopeNode,
				Precursors: []EventSpec{
					{Message: "instruction cache parity error corrected", Component: "KERNEL",
						Severity: logs.Warning, Delay: 0},
				},
				Final: EventSpec{Message: "l3 major internal error", Component: "KERNEL",
					Severity: logs.Failure, Delay: 100 * time.Second, Jitter: 0.25},
			},
			{
				// A slow midplane power degradation: the long cascade the
				// paper's Figure 5 tail (sequences of more than 8 events)
				// and hour-scale prediction windows come from.
				Name: "midplanepower", Category: "power", MTBF: 12 * time.Hour,
				PrecursorProb: 0.88, IsFailure: true, OriginScope: topology.ScopeMidplane,
				Precursors: []EventSpec{
					{Message: "bulk power module status warning bank d+", Component: "MONITOR",
						Severity: logs.Warning, Delay: 0},
					{Message: "voltage on midplane * below nominal d+ mv", Component: "MONITOR",
						Severity: logs.Warning, Delay: 30 * time.Second, Jitter: 0.1},
					{Message: "fan speed increased to d+ rpm on midplane *", Component: "MONITOR",
						Severity: logs.Info, Delay: 20 * time.Second, Jitter: 0.1},
					{Message: "temperature sensor d+ reading high on node card *", Component: "MONITOR",
						Severity: logs.Warning, Delay: 40 * time.Second, Jitter: 0.1},
					{Message: "bulk power module d+ current limit warning", Component: "MONITOR",
						Severity: logs.Warning, Delay: 30 * time.Second, Jitter: 0.1},
					{Message: "dc-dc converter d+ ripple above threshold", Component: "MONITOR",
						Severity: logs.Warning, Delay: 20 * time.Second, Jitter: 0.1},
					{Message: "node card * reporting throttled clocks", Component: "KERNEL",
						Severity: logs.Warning, Delay: 40 * time.Second, Jitter: 0.1},
					{Message: "redundant power supply d+ offline on midplane *", Component: "MONITOR",
						Severity: logs.Severe, Delay: 30 * time.Second, Jitter: 0.1},
				},
				Final: EventSpec{Message: "midplane * shutdown due to power fault", Component: "MONITOR",
					Severity: logs.Failure, Delay: 45 * time.Second, Jitter: 0.1,
					Scope: topology.ScopeMidplane, FanOut: 6},
			},
			{
				Name: "ciodb", Category: "io", MTBF: 7 * time.Hour,
				PrecursorProb: 0.55, IsFailure: true, OriginScope: topology.ScopeSystem,
				Precursors: []EventSpec{
					{Message: "ciodb exited abnormally due to signal: aborted", Component: "CIODB",
						Severity: logs.Failure, Delay: 0},
					{Message: "mmcs server exited abnormally due to signal: d+", Component: "MMCS",
						Severity: logs.Failure, Delay: 0},
				},
				Final: EventSpec{Message: "job d+ timed out. n+", Component: "CIODB",
					Severity: logs.Severe, Delay: 0},
			},
			{
				// A rack service-network crash: no precursor messages at
				// all — the rack simply goes quiet (heartbeats stop) and
				// the operators' environmental monitor only notices
				// minutes later. Absence detection is the only way to
				// catch it early.
				Name: "rackcrash", Category: "crash", MTBF: 30 * time.Hour,
				PrecursorProb: 0, IsFailure: true, OriginScope: topology.ScopeRack,
				SilenceRack: 30 * time.Minute,
				Final: EventSpec{Message: "environmental monitor lost contact with rack *", Component: "SERVICE",
					Severity: logs.Severe, Delay: 10 * time.Minute, Jitter: 0.1},
			},
			{
				Name: "restart", Category: "restart", MTBF: 5 * time.Hour,
				PrecursorProb: 0.97, IsFailure: false, OriginScope: topology.ScopeSystem,
				Precursors: []EventSpec{
					{Message: "idoproxydb has been started: $name: d+ $ input parameters: -enableflush -loguserinfo db.properties bluegene1",
						Component: "IDO", Severity: logs.Info, Delay: 0},
					{Message: "ciodb has been restarted.", Component: "CIODB",
						Severity: logs.Info, Delay: 8 * time.Second, Jitter: 0.2},
					{Message: "bglmaster has been started: ./bglmaster --consoleip 127.0.0.1 --consoleport d+ --autorestart y",
						Component: "MASTER", Severity: logs.Info, Delay: 6 * time.Second, Jitter: 0.2},
				},
				Final: EventSpec{Message: "mmcs db server has been started: ./mmcs db server --usedatabase bgl --reconnect-blocks all n+",
					Component: "MMCS", Severity: logs.Info, Delay: 7 * time.Second, Jitter: 0.2},
			},
			{
				Name: "multiline", Category: "info", MTBF: 2 * time.Hour,
				PrecursorProb: 1, IsFailure: false, OriginScope: topology.ScopeNode,
				Precursors: []EventSpec{
					{Message: "general purpose registers:", Component: "KERNEL",
						Severity: logs.Info, Delay: 0},
				},
				Final: EventSpec{Message: "lr:d+ cr:d+ xer:d+ ctr:d+", Component: "KERNEL",
					Severity: logs.Info, Delay: 0},
			},
		},
	}
}

// Mercury returns the flat-cluster profile modelled on the NCSA Mercury
// system: NFS global failures, unexpected node restarts, and a different
// background mix.
func Mercury() Profile {
	m := topology.Mercury()
	return Profile{
		Name:    "mercury",
		Machine: m,
		Daemons: []DaemonSpec{
			{Name: "cron", Component: "CRON", Severity: logs.Info,
				Message: "cron job d+ completed", Period: 10 * time.Minute},
			{Name: "syslog", Component: "SYSLOG", Severity: logs.Info,
				Message: "syslog-ng statistics processed d+ messages", Period: 10 * time.Minute},
			{Name: "netchatter", Component: "NET", Severity: logs.Info,
				Message: "eth0 link status poll ok latency d+ us", Rate: 0.1, PerNode: true},
			{Name: "pbs", Component: "PBS", Severity: logs.Info,
				Message: "pbs_mom session d+ started", Rate: 0.05, PerNode: true},
			{Name: "pbsend", Component: "PBS", Severity: logs.Info,
				Message: "pbs_mom session d+ exited status d+", Rate: 0.05, PerNode: true},
			{Name: "nfsstat", Component: "NFS", Severity: logs.Info,
				Message: "nfs client statistics d+ ops d+ retrans", Period: 5 * time.Minute},
			{Name: "sensors", Component: "HW", Severity: logs.Info,
				Message: "lm_sensors cpu temperature d+ dC", Rate: 0.04, PerNode: true},
			{Name: "sshd", Component: "SSHD", Severity: logs.Info,
				Message: "accepted publickey for user d+ from d+ port d+", Rate: 0.02, PerNode: true},
		},
		Archetypes: []FaultArchetype{
			{
				Name: "nfs", Category: "network", MTBF: 5 * time.Hour,
				PrecursorProb: 0.3, IsFailure: true, OriginScope: topology.ScopeSystem,
				Precursors: []EventSpec{
					{Message: "nfs server not responding timed out", Component: "NFS",
						Severity: logs.Warning, Delay: 0, Burst: 3},
				},
				Final: EventSpec{Message: "rpc: bad tcp reclen d+ (non-terminal)", Component: "NFS",
					Severity: logs.Failure, Delay: 10 * time.Second, Jitter: 0.3,
					Burst: 2, Scope: topology.ScopeSystem, FanOut: 80},
			},
			{
				Name: "noderestart", Category: "node", MTBF: 3 * time.Hour,
				PrecursorProb: 0.5, IsFailure: true, OriginScope: topology.ScopeNode,
				Precursors: []EventSpec{
					{Message: "kernel: mce machine check event logged bank d+", Component: "KERNEL",
						Severity: logs.Warning, Delay: 0},
				},
				Final: EventSpec{Message: "ifup: could not get a valid interface name: -> skipped",
					Component: "NET", Severity: logs.Failure, Delay: 45 * time.Second, Jitter: 0.15,
					Scope: topology.ScopeSystem, FanOut: 4},
			},
			{
				Name: "disk", Category: "storage", MTBF: 8 * time.Hour,
				PrecursorProb: 0.7, IsFailure: true, OriginScope: topology.ScopeNode,
				Precursors: []EventSpec{
					{Message: "scsi: aborting command due to timeout id d+", Component: "SCSI",
						Severity: logs.Warning, Delay: 0, Burst: 2},
					{Message: "ext3-fs error: unable to read inode block d+", Component: "FS",
						Severity: logs.Severe, Delay: 3 * time.Minute, Jitter: 0.12},
				},
				Final: EventSpec{Message: "journal commit i/o error on device sdd+", Component: "FS",
					Severity: logs.Failure, Delay: 5 * time.Minute, Jitter: 0.12},
			},
			{
				Name: "pbsrestart", Category: "restart", MTBF: 6 * time.Hour,
				PrecursorProb: 0.95, IsFailure: false, OriginScope: topology.ScopeNode,
				Precursors: []EventSpec{
					{Message: "pbs_mom shutdown requested by operator", Component: "PBS",
						Severity: logs.Info, Delay: 0},
				},
				Final: EventSpec{Message: "pbs_mom restarted pid d+", Component: "PBS",
					Severity: logs.Info, Delay: 12 * time.Second, Jitter: 0.2},
			},
		},
	}
}
