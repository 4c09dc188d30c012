package sig

// Counts is one sampling tick's per-event record counts: the ids counted,
// in first-seen order, with their counts, and an id → slot table. The
// table takes idTable's rule — ids below denseCounterMax index a slice
// grown by doubling, any other id (negative, or past the bound) a map
// entry — so an id never sizes an allocation. Reset clears only the ids
// the tick touched, so a recycled Counts costs nothing once its table has
// grown to the stream's ids. The zero value is empty and ready to use.
type Counts struct {
	seen []Count       // first-seen order
	slot []int32       // id -> 1 + its index in seen, 0 when not counted
	far  map[int]int32 // the same for ids outside [0, denseCounterMax)
}

// Count is one event's record count within a tick.
type Count struct {
	ID, N int
}

// Add counts n more records of event id (n > 0) and reports whether it
// is the id's first count, which appends it to All.
//
//elsa:hotpath
func (c *Counts) Add(id, n int) (first bool) {
	if s := c.Slot(id); s >= 0 {
		c.seen[s].N += n
		return false
	}
	slot := len(c.seen)
	if uint(id) < denseCounterMax {
		if id >= len(c.slot) {
			size := max(len(c.slot), 64)
			for size <= id {
				size *= 2
			}
			c.slot = append(c.slot, make([]int32, size-len(c.slot))...) //nolint:elsahotpath // amortized: doubles at most log2(denseCounterMax) times
		}
		c.slot[id] = int32(slot + 1)
	} else {
		if c.far == nil {
			c.far = make(map[int]int32) //nolint:elsahotpath // once, on the first id outside the dense bound
		}
		c.far[id] = int32(slot + 1)
	}
	if c.seen == nil {
		c.seen = make([]Count, 0, 8) //nolint:elsahotpath // once per Counts: a tick rarely counts more ids
	}
	c.seen = append(c.seen, Count{ID: id, N: n}) //nolint:elsahotpath // amortized: bounded by the distinct ids of one tick
	return true
}

// Slot returns the id's index in All, or -1 when the tick did not count
// it.
//
//elsa:hotpath
func (c *Counts) Slot(id int) int {
	if uint(id) < uint(len(c.slot)) {
		return int(c.slot[id]) - 1
	}
	if uint(id) < denseCounterMax {
		return -1
	}
	if s, ok := c.far[id]; ok {
		return int(s) - 1
	}
	return -1
}

// Of returns the tick's count of event id, 0 when it counted none.
func (c *Counts) Of(id int) int {
	if s := c.Slot(id); s >= 0 {
		return c.seen[s].N
	}
	return 0
}

// All returns the counted ids with their counts, in first-seen order. The
// slice is the Counts' own: valid until the next Add or Reset.
func (c *Counts) All() []Count { return c.seen }

// Len returns how many distinct ids the tick counted.
func (c *Counts) Len() int { return len(c.seen) }

// Reset empties the counts, clearing only the slots of the ids counted.
//
//elsa:hotpath
func (c *Counts) Reset() {
	for _, e := range c.seen {
		if uint(e.ID) < denseCounterMax {
			c.slot[e.ID] = 0
		} else {
			delete(c.far, e.ID)
		}
	}
	c.seen = c.seen[:0]
}
