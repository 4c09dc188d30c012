package sig

// coWindow is the windowed co-occurrence counter, the one way the package
// counts ordered spike pairs within MaxLag of each other. Fed the spikes of
// a merged timeline in non-decreasing tick order, it adds to a pairCounter
// exactly what a sweep pairing every spike with every earlier in-window
// spike would: a spike of e counts once toward (a, e) for each earlier
// spike of a != e within maxLag, and a spike of the same tick also counts
// in the reverse order (the kernel's delay-0 bin sees it from both sides).
// It keeps, per event, how many of its spikes are inside the window, so a
// spike costs one counter update per distinct live event, not one per live
// spike; the ring of recent spikes only expires them.
//
// Two callers drive it: Accumulator.ObserveTick per closed tick, over a
// stream's lifetime (the ring rides the snapshot), and prefilterPairs in
// one pass over a training horizon's merged timeline.
//
//elsa:snapshot
type coWindow struct {
	//elsa:ephemeral configuration is a constructor argument, not stream state
	maxLag int

	ring []accSpike // spikes within maxLag of the newest tick, oldest first
	//elsa:ephemeral ring head offset; only the live entries are the state
	head int
	//elsa:ephemeral derived from ring on restore: the events with a spike inside the ring
	live []int
	//elsa:ephemeral derived from ring on restore: per event, its spikes inside the ring
	win idTable[int32]
}

// accSpike is one ring entry: a spike of event E at tick T.
type accSpike struct {
	T int `json:"t"`
	E int `json:"e"`
}

// newCoWindow returns an empty window maxLag ticks wide.
func newCoWindow(maxLag int) coWindow {
	return coWindow{maxLag: maxLag, win: newIDTable[int32]()}
}

// expire drops the ring entries that fell out of the window behind tick,
// and from the live list the events left without one.
//
//elsa:hotpath
func (w *coWindow) expire(tick int) {
	emptied := false
	for ; w.head < len(w.ring) && tick-w.ring[w.head].T > w.maxLag; w.head++ {
		n := w.win.at(w.ring[w.head].E)
		*n--
		emptied = emptied || *n == 0
	}
	if emptied {
		live := w.live[:0]
		for _, a := range w.live {
			if *w.win.at(a) > 0 {
				live = append(live, a) //nolint:elsahotpath // filters w.live in place, never grows
			}
		}
		w.live = live
	}
	if w.head > 64 && w.head*2 > len(w.ring) {
		n := copy(w.ring, w.ring[w.head:])
		w.ring = w.ring[:n]
		w.head = 0
	}
}

// add counts one new spike of e at tick against the window (expired to
// tick already) and enters it. Every live spike precedes it in timeline
// order, so each live event a != e gains its window count toward (a, e) —
// one update however many spikes it has in the ring, and the counter's
// clamp makes the grouping invisible — and the ring's tail, this tick's
// earlier spikes, counts in the reverse order too.
//
//elsa:hotpath
func (w *coWindow) add(tick, e int, pairs *pairCounter) {
	b := int32(e)
	for _, a := range w.live {
		if a != e {
			pairs.add(int32(a), b, *w.win.at(a))
		}
	}
	for i := len(w.ring) - 1; i >= w.head && w.ring[i].T == tick; i-- {
		if a := w.ring[i].E; a != e { // a train may repeat a tick
			pairs.add(b, int32(a), 1)
		}
	}
	w.enter(tick, e)
}

// enter appends one spike to the ring and to the window counts.
//
//elsa:hotpath
func (w *coWindow) enter(tick, e int) {
	w.ring = append(w.ring, accSpike{T: tick, E: e}) //nolint:elsahotpath // amortized: the ring is bounded by the spikes inside one maxLag window
	n := w.win.at(e)
	if *n == 0 {
		w.live = append(w.live, e) //nolint:elsahotpath // amortized: bounded by the distinct events inside one maxLag window
	}
	*n++
}

// idTable holds one slot per event id: ids below denseCounterMax index a
// slice grown by doubling (the accumulator's run per record), any other id
// — negative, or past the bound; a snapshot is bytes this process did not
// necessarily write — gets a map entry.
type idTable[T any] struct {
	dense []T
	far   map[int]*T
}

// newIDTable returns an empty table.
func newIDTable[T any]() idTable[T] { return idTable[T]{far: make(map[int]*T)} }

// at returns the id's slot, zero on first sight. The pointer is valid until
// the next call.
//
//elsa:hotpath
func (t *idTable[T]) at(id int) *T {
	if uint(id) >= uint(len(t.dense)) {
		if uint(id) >= denseCounterMax {
			p := t.far[id]
			if p == nil {
				p = new(T) //nolint:elsahotpath // once per event id outside the dense bound
				t.far[id] = p
			}
			return p
		}
		n := max(len(t.dense), 64)
		for n <= id {
			n *= 2
		}
		t.dense = append(t.dense, make([]T, n-len(t.dense))...) //nolint:elsahotpath // amortized: doubles at most log2(denseCounterMax) times
	}
	return &t.dense[id]
}
