package lint

import (
	"fmt"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// fleetShapedTmpl mirrors the fleet's snapshot-handoff succession: a
// monitor protocol (feed/snapshot require open, close is terminal) and
// a handoff that snapshots the live incarnation, closes it, and seeds
// the successor. The %s hole sits after close, where a use-after-close
// mutation lands.
const fleetShapedTmpl = `package fleet

// monitor mirrors the per-shard monitor lifecycle.
//
//elsa:state open closed
type monitor struct {
	preds int
}

//elsa:requires open
func (m *monitor) feed(rec int) int {
	m.preds++
	return rec
}

//elsa:requires open
func (m *monitor) snapshot() []byte {
	return []byte{byte(m.preds)}
}

//elsa:transition open->closed closed->closed
func (m *monitor) close() {}

// handoff drains the tail into the old incarnation, snapshots it,
// retires it, and replays the tail into the successor.
func handoff(tail []int) []int {
	old := &monitor{}
	var out []int
	for _, r := range tail {
		out = append(out, old.feed(r))
	}
	snap := old.snapshot()
	old.close()
%s	next := &monitor{preds: int(snap[0])}
	for _, r := range tail {
		out = append(out, next.feed(r))
	}
	return out
}
`

// TestStateMutationGuard injects a feed into the retired incarnation —
// the lost-update bug the handoff ordering exists to prevent — and
// demands elsastate report the use-after-close.
func TestStateMutationGuard(t *testing.T) {
	clean := fmt.Sprintf(fleetShapedTmpl, "")
	if diags := runAnalyzers(t, loadSource(t, clean), []*analysis.Analyzer{StateAnalyzer}); len(diags) != 0 {
		t.Fatalf("control fixture should be clean, got: %v", diags)
	}

	mutant := fmt.Sprintf(fleetShapedTmpl, "\tout = append(out, old.feed(0))\n")
	diags := runAnalyzers(t, loadSource(t, mutant), []*analysis.Analyzer{StateAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("mutant should produce exactly one finding, got %d: %v", len(diags), diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, "monitor.feed requires state open") || !strings.Contains(msg, "closed") {
		t.Fatalf("finding does not describe the feed-after-close: %s", msg)
	}
}

// handoffLoopTmpl mirrors a shard's serve loop: one incarnation fed
// batch after batch and retired once the stream ends. The %s hole sits
// at the end of the loop body, where an early close makes the next
// iteration's feed a use-after-close.
const handoffLoopTmpl = `package fleet

//elsa:state open closed
type monitor struct{ preds int }

//elsa:requires open
func (m *monitor) feed(rec int) int {
	m.preds++
	return rec
}

//elsa:transition open->closed closed->closed
func (m *monitor) close() {}

func serve(batches [][]int) []int {
	live := &monitor{}
	var out []int
	for _, b := range batches {
		for _, r := range b {
			out = append(out, live.feed(r))
		}
%s	}
	live.close()
	return out
}
`

// TestStateLoopMutationGuard closes the incarnation inside the serve
// loop and demands elsastate report the next iteration's feed, once:
// the finding exists only on the path through a second iteration.
func TestStateLoopMutationGuard(t *testing.T) {
	clean := fmt.Sprintf(handoffLoopTmpl, "")
	if diags := runAnalyzers(t, loadSource(t, clean), []*analysis.Analyzer{StateAnalyzer}); len(diags) != 0 {
		t.Fatalf("control fixture should be clean, got: %v", diags)
	}

	mutant := fmt.Sprintf(handoffLoopTmpl, "\t\tlive.close()\n")
	diags := runAnalyzers(t, loadSource(t, mutant), []*analysis.Analyzer{StateAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("mutant should produce exactly one finding, got %d: %v", len(diags), diags)
	}
	if msg := diags[0].Message; !strings.Contains(msg, "monitor.feed requires state open, but live may be in state closed") {
		t.Fatalf("finding does not describe the feed-after-close: %s", msg)
	}
}

// TestStateAnnotationStripped proves the analyzer is annotation-driven:
// the same use-after-close mutant with every //elsa: directive stripped
// produces no findings — there is no protocol left to verify against.
func TestStateAnnotationStripped(t *testing.T) {
	mutant := fmt.Sprintf(fleetShapedTmpl, "\tout = append(out, old.feed(0))\n")
	stripped := strings.ReplaceAll(mutant, "//elsa:", "// elsa (off): ")
	if diags := runAnalyzers(t, loadSource(t, stripped), []*analysis.Analyzer{StateAnalyzer}); len(diags) != 0 {
		t.Fatalf("stripped-annotation mutant should be silent, got: %v", diags)
	}
}

// mergeShapedTmpl mirrors the fleet coordinator's merge path: per-shard
// batches flattened into the cluster stream by an exported function.
// The %s hole holds the flattening loop — deterministically ordered in
// the control, map-ranged in the mutant.
const mergeShapedTmpl = `package fleet

import "sort"

var _ = sort.Strings // keep the import live in both template variants

type merged struct {
	Shard string
	Seq   int
}

// MergeOrder flattens per-shard batches into the cluster stream.
func MergeOrder(batches map[string][]int) []merged {
	var out []merged
%s	return out
}
`

const mergeSortedLoop = `	names := make([]string, 0, len(batches))
	for name := range batches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, seq := range batches[name] {
			out = append(out, merged{Shard: name, Seq: seq})
		}
	}
`

const mergeMapRangeLoop = `	for name, b := range batches {
		for _, seq := range b {
			out = append(out, merged{Shard: name, Seq: seq})
		}
	}
`

// TestDetFlowMutationGuard replaces the sorted merge loop with a bare
// map range — the classic nondeterministic-replay bug — and demands
// elsadetflow report the ordered elements reaching the exported return.
func TestDetFlowMutationGuard(t *testing.T) {
	clean := fmt.Sprintf(mergeShapedTmpl, mergeSortedLoop)
	if diags := runAnalyzers(t, loadSource(t, clean), []*analysis.Analyzer{DetFlowAnalyzer}); len(diags) != 0 {
		t.Fatalf("control fixture should be clean, got: %v", diags)
	}

	mutant := fmt.Sprintf(mergeShapedTmpl, mergeMapRangeLoop)
	diags := runAnalyzers(t, loadSource(t, mutant), []*analysis.Analyzer{DetFlowAnalyzer})
	if len(diags) != 1 {
		t.Fatalf("mutant should produce exactly one finding, got %d: %v", len(diags), diags)
	}
	msg := diags[0].Message
	if !strings.Contains(msg, "map-iteration-ordered") || !strings.Contains(msg, "exported MergeOrder") {
		t.Fatalf("finding does not describe the unordered merge: %s", msg)
	}
}
