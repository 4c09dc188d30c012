package fleet

import (
	"fmt"
	"testing"
)

// ringKeys builds a synthetic scope-key population shaped like the
// machines the fleet partitions: rack and midplane codes plus flat
// hostnames.
func ringKeys(n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		switch i % 3 {
		case 0:
			keys = append(keys, fmt.Sprintf("R%02d", i%64))
		case 1:
			keys = append(keys, fmt.Sprintf("R%02d-M%d", i%64, i%2))
		default:
			keys = append(keys, fmt.Sprintf("tg-c%03d", i))
		}
	}
	// Dedup (the generator can repeat codes for small moduli).
	seen := make(map[string]bool, len(keys))
	out := keys[:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// The scope→shard map must be a pure function of the member set: two
// rings built with the same members in different orders agree on every
// key, across runs (no map iteration, no global rand).
func TestRingDeterministicAcrossBuilds(t *testing.T) {
	a := NewRing(64)
	b := NewRing(64)
	for _, m := range []string{"shard0", "shard1", "shard2", "shard3"} {
		a.Add(m)
	}
	for _, m := range []string{"shard3", "shard1", "shard0", "shard2"} {
		b.Add(m)
	}
	for _, k := range ringKeys(2000) {
		if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
			t.Fatalf("key %q: owner %q vs %q for the same member set", k, ao, bo)
		}
	}
}

// Adding one member must move keys only TO the new member (every other
// key keeps its owner), and the moved fraction must be near 1/(n+1) —
// the consistent-hashing stability contract that makes shard rebalance
// an incremental migration instead of a full reshuffle.
func TestRingAddMovesOnlyExpectedFraction(t *testing.T) {
	keys := ringKeys(4000)
	r := NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("shard%d", i))
	}
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Owner(k)
	}
	r.Add("shard4")
	moved := 0
	for _, k := range keys {
		after := r.Owner(k)
		if after == before[k] {
			continue
		}
		if after != "shard4" {
			t.Fatalf("key %q moved %q -> %q: keys may only move to the added member", k, before[k], after)
		}
		moved++
	}
	frac := float64(moved) / float64(len(keys))
	if frac == 0 {
		t.Fatal("adding a member moved no keys: it owns nothing")
	}
	// Ideal is 1/5 = 0.20; allow generous variance for vnode placement.
	if frac < 0.08 || frac > 0.35 {
		t.Fatalf("adding 5th member moved %.1f%% of keys, want ≈20%%", 100*frac)
	}
}

// The ring must spread a realistic key population roughly evenly.
func TestRingBalance(t *testing.T) {
	keys := ringKeys(6000)
	r := NewRing(0)
	n := 4
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("shard%d", i))
	}
	counts := make(map[string]int)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	want := len(keys) / n
	for m, c := range counts {
		if c < want/3 || c > want*3 {
			t.Fatalf("member %s owns %d of %d keys (ideal %d): imbalanced", m, c, len(keys), want)
		}
	}
	if len(counts) != n {
		t.Fatalf("only %d of %d members own keys", len(counts), n)
	}
}
