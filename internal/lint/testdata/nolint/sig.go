// Package sig (fixture) exercises the suppression machinery end to end:
// well-formed nolints silence elsadeterminism; malformed ones are
// flagged by elsanolint and do not suppress.
package sig

import "time"

// inlineSuppressed: a reasoned inline nolint silences the finding.
func inlineSuppressed() time.Time {
	return time.Now() //nolint:elsadeterminism // boot banner timestamp, never enters the model
}

// standaloneSuppressed: the comment on the line above also covers it.
func standaloneSuppressed() time.Time {
	//nolint:elsa // blanket: telemetry-only helper, reviewed 2026-08
	return time.Now()
}

// reasonless nolints do not suppress and are themselves flagged.
func reasonless() time.Time {
	// want "time.Now reads the wall clock" "requires a reason"
	return time.Now() //nolint:elsadeterminism
}

// unknown analyzer names are flagged (and suppress nothing).
func unknownName() time.Time {
	// want "time.Now reads the wall clock" "unknown analyzer"
	return time.Now() //nolint:elsabogus // some reason
}

// empty target lists are flagged.
func emptyTargets() int {
	// want "names no analyzers"
	n := 1 //nolint:
	return n
}

// foreign linter targets are none of our business.
func foreignTarget(xs []int) int {
	n := 0
	for range xs {
		n++ //nolint:gocritic
	}
	return n
}

// the invariant-suite names added with the dataflow analyzers are
// accepted suppression targets.
func newSuiteNames() int {
	n := 1 //nolint:elsasnapshot // fixture: name-validation only
	n++    //nolint:elsaatomic // fixture: name-validation only
	n++    //nolint:elsachan // fixture: name-validation only
	n++    //nolint:elsalockorder // fixture: name-validation only
	n++    //nolint:elsaerrflow // fixture: name-validation only
	return n
}

// the typestate and determinism-taint analyzers register their names
// with the suppression registry like every other suite member.
func protocolSuiteNames() int {
	n := 1 //nolint:elsastate // fixture: name-validation only
	n++    //nolint:elsadetflow // fixture: name-validation only
	return n
}

// the valid-name list is held to the registry
// (TestAnalyzerNamesMatchRegistry), so it names the dataflow analyzers
// too.
func derivedList() int {
	// want "unknown analyzer .elsasnapshots. .valid: elsa, elsaatomic, elsachan, elsactxflow"
	n := 1 //nolint:elsasnapshots // near-miss of a real name
	return n
}
