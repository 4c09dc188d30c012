package sig

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// countsOf builds a tick's Counts from a map, ids in ascending order.
func countsOf(m map[int]int) Counts {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var c Counts
	for _, id := range ids {
		c.Add(id, m[id])
	}
	return c
}

// TestCountsMatchesMap: over random ids — dense, negative and far past
// the dense bound — Counts answers every id as a map would, lists the
// ids in first-seen order, and a Reset leaves it as good as new.
func TestCountsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := []int{0, 1, 5, 63, 64, 200, denseCounterMax - 1, denseCounterMax, -1, -7, 1 << 40, 1 << 31}
	var c Counts
	for round := 0; round < 50; round++ {
		want := map[int]int{}
		var order []int
		for i := rng.Intn(40); i > 0; i-- {
			id := pool[rng.Intn(len(pool))]
			n := 1 + rng.Intn(3)
			first := c.Add(id, n)
			if _, seen := want[id]; first == seen {
				t.Fatalf("round %d: Add(%d) first = %v, seen before = %v", round, id, first, seen)
			}
			if first {
				order = append(order, id)
			}
			if s := c.Slot(id); s != slices.Index(order, id) {
				t.Fatalf("round %d: Slot(%d) = %d, want %d", round, id, s, slices.Index(order, id))
			}
			want[id] += n
		}
		if c.Len() != len(want) {
			t.Fatalf("round %d: Len %d, want %d", round, c.Len(), len(want))
		}
		for i, e := range c.All() {
			if e.ID != order[i] || e.N != want[e.ID] {
				t.Fatalf("round %d: All()[%d] = %+v, want {%d %d}", round, i, e, order[i], want[order[i]])
			}
		}
		for _, id := range pool {
			if c.Of(id) != want[id] {
				t.Fatalf("round %d: Of(%d) = %d, want %d", round, id, c.Of(id), want[id])
			}
		}
		c.Reset()
		if c.Len() != 0 || len(c.far) != 0 || slices.ContainsFunc(c.slot, func(s int32) bool { return s != 0 }) {
			t.Fatalf("round %d: Reset left %d ids, %d far entries, slots %v", round, c.Len(), len(c.far), c.slot)
		}
	}
}

// TestCountsHostileIDsAllocateO1: an id past the dense bound takes the
// map path, so it never sizes the slot table, and a recycled Counts that
// has seen its ids counts them again without allocating.
func TestCountsHostileIDsAllocateO1(t *testing.T) {
	var c Counts
	c.Add(1<<40, 1)
	c.Add(-5, 2)
	if len(c.slot) != 0 {
		t.Fatalf("far ids grew the dense table to %d slots", len(c.slot))
	}
	ids := []int{3, 1 << 40, 70, -5, 3}
	n := testing.AllocsPerRun(100, func() {
		c.Reset()
		for _, id := range ids {
			c.Add(id, 1)
		}
	})
	if n != 0 {
		t.Fatalf("recycled Counts allocates %v times a tick, want 0", n)
	}
	if got := c.All(); !reflect.DeepEqual(got, []Count{{3, 2}, {1 << 40, 1}, {70, 1}, {-5, 1}}) {
		t.Fatalf("All() = %v", got)
	}
}
