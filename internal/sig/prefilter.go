package sig

import (
	"math/bits"
	"slices"
	"sort"
)

// PairStats reports how much of the ordered pair space AllPairs actually
// had to score. Candidates is the blind E*(E-1) enumeration the naive path
// would walk; Scored is how many pairs survived the co-occurrence
// prefilter and ran the cross-correlation kernel; Kept is how many passed
// the acceptance thresholds.
type PairStats struct {
	Events     int `json:"events"`
	Candidates int `json:"candidates"`
	Scored     int `json:"scored"`
	Kept       int `json:"kept"`
}

// Pruned returns the number of ordered pairs the prefilter discarded
// without running the kernel.
func (s PairStats) Pruned() int { return s.Candidates - s.Scored }

// spike is one entry of the merged timeline: a sample index plus the dense
// index (into the sorted id list) of the train it belongs to.
type spike struct {
	t  int
	id int32
}

// exactSweepBudget caps the co-occurrence mass (total number of ordered
// spike pairs within MaxLag of each other) of a timeline the exact windowed
// sweep is given. Above it the prefilter switches to the block-bucket
// upper-bound sweep, whose cost depends on the number of events per block,
// not on how many of them are inside the window at once.
const exactSweepBudget = 1 << 22

// denseCounterMax bounds the side of the flat pair table: ids below it
// index an id x id []int32 directly (2048 -> 16 MiB at most), a pair with
// any id outside [0, denseCounterMax) lives in a hash map. An event
// universe that keeps growing therefore cannot make the counter quadratic.
const denseCounterMax = 2048

// counterCap is the saturation ceiling, far above any usable MinCount. A
// count is clamped — min(cap, total) — so its final value never depends on
// the order the increments arrived in.
const counterCap = 1 << 30

func pairKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// pairCounter accumulates per-ordered-pair co-occurrence counts and which
// of them changed since clearDirty: the one table behind the batch sweeps
// (sized up front) and the streaming Accumulator (grown by doubling as
// event ids appear).
type pairCounter struct {
	//elsa:ephemeral derived from counts on restore: the flat table's side, ids in [0, e) index dense
	e     int32
	dense []int32  // e*e counts, row a holding the pairs (a, *)
	dbits []uint64 // one dirty bit per dense cell

	m  map[uint64]int32    // pairs with an id outside [0, denseCounterMax)
	dm map[uint64]struct{} // the dirty ones among them
}

// newPairCounter returns a counter whose flat table already covers ids
// [0, e), up to the dense bound.
func newPairCounter(e int) *pairCounter {
	c := &pairCounter{m: make(map[uint64]int32), dm: make(map[uint64]struct{})}
	c.grow(int32(min(e, denseCounterMax)))
	return c
}

// grow re-lays the flat table out with the given side.
func (c *pairCounter) grow(side int32) {
	old := *c
	c.e = side
	c.dense = make([]int32, int(side)*int(side))
	c.dbits = make([]uint64, (len(c.dense)+63)/64)
	for a := int32(0); a < old.e; a++ {
		copy(c.dense[a*side:], old.dense[a*old.e:(a+1)*old.e])
	}
	old.eachDirtyCell(func(i int32) { c.mark(i/old.e, i%old.e) })
}

// add accumulates n co-occurrences (0 < n <= counterCap) for the ordered
// pair (a, b), clamped at counterCap; a saturated pair no longer changes
// and is not marked dirty. A pair the flat table does not cover yet
// doubles it until it does, or goes to the hashed overflow.
//
//elsa:hotpath
func (c *pairCounter) add(a, b, n int32) {
	if uint32(a) < uint32(c.e) && uint32(b) < uint32(c.e) {
		k := a*c.e + b
		if v := c.dense[k]; v < counterCap {
			c.dense[k] = v + min(n, counterCap-v)
			c.dbits[k>>6] |= 1 << (k & 63)
		}
		return
	}
	if uint32(a) < denseCounterMax && uint32(b) < denseCounterMax {
		side := max(c.e, 64)
		for side <= max(a, b) {
			side *= 2
		}
		c.grow(min(side, denseCounterMax))
		c.add(a, b, n)
	} else if k := pairKey(a, b); c.m[k] < counterCap {
		c.m[k] += min(n, counterCap-c.m[k])
		c.dm[k] = struct{}{}
	}
}

// mark flags the pair dirty.
func (c *pairCounter) mark(a, b int32) {
	if uint32(a) < uint32(c.e) && uint32(b) < uint32(c.e) {
		k := a*c.e + b
		c.dbits[k>>6] |= 1 << (k & 63)
	} else {
		c.dm[pairKey(a, b)] = struct{}{}
	}
}

// get reads one ordered pair's accumulated count.
func (c *pairCounter) get(a, b int32) int32 {
	if uint32(a) < uint32(c.e) && uint32(b) < uint32(c.e) {
		return c.dense[a*c.e+b]
	}
	return c.m[pairKey(a, b)]
}

// eachDirtyCell calls fn with the flat index of every dirty dense cell,
// ascending.
func (c *pairCounter) eachDirtyCell(fn func(i int32)) {
	for w, word := range c.dbits {
		for ; word != 0; word &= word - 1 {
			fn(int32(w*64 + bits.TrailingZeros64(word)))
		}
	}
}

// each calls fn with the key and count of every counted pair — only the
// dirty ones when dirty is set — in (a, b) order: the flat table is
// scanned in place, and the (normally empty) overflow is sorted and merged
// in, so no caller sorts.
func (c *pairCounter) each(dirty bool, fn func(k uint64, v int32)) {
	var over []uint64
	if dirty {
		for k := range c.dm {
			over = append(over, k)
		}
	} else {
		for k := range c.m {
			over = append(over, k)
		}
	}
	slices.Sort(over)
	visit := func(k uint64, v int32) {
		for ; len(over) > 0 && over[0] < k; over = over[1:] {
			fn(over[0], c.m[over[0]])
		}
		fn(k, v)
	}
	if dirty {
		c.eachDirtyCell(func(i int32) { visit(pairKey(i/c.e, i%c.e), c.dense[i]) })
	} else {
		for a := int32(0); a < c.e; a++ {
			for b, v := range c.dense[a*c.e : (a+1)*c.e] {
				if v != 0 {
					visit(pairKey(a, int32(b)), v)
				}
			}
		}
	}
	for _, k := range over {
		fn(k, c.m[k])
	}
}

// clearDirty forgets which pairs changed.
func (c *pairCounter) clearDirty() {
	clear(c.dbits)
	clear(c.dm)
}

// emit returns the ordered pairs whose accumulated count reaches need, in
// (a, b) order, so the kernel's work queue (and any pruning trace an
// operator compares across runs) is the same on every run.
func (c *pairCounter) emit(need int32) [][2]int32 {
	var cands [][2]int32
	c.each(false, func(k uint64, v int32) {
		if v >= need {
			cands = append(cands, [2]int32{int32(k >> 32), int32(uint32(k))})
		}
	})
	return cands
}

// prefilterPairs prunes the ordered pair space before the kernel runs: it
// returns only the pairs (A, B) whose total number of co-occurrences with
// 0 <= t_B - t_A <= MaxLag can reach MinCount. Every windowed count the
// kernel considers is a subset of that total, so dropping the rest cannot
// change the result. Simultaneous spikes count toward both orders, exactly
// as the kernel's delay-0 bin does.
//
// Two sweeps implement the bound, picked by the co-occurrence mass of the
// merged timeline (measured with one cheap two-pointer pass):
//
//   - exact: feed the merged timeline through a coWindow, the counter the
//     streaming Accumulator runs tick by tick. One update per spike and
//     distinct in-window event — ideal for the sparse outlier-filtered
//     trains the hybrid pipeline feeds in, where most pairs never co-occur
//     at all.
//   - block upper bound: bucket the timeline into blocks of width MaxLag+1;
//     any co-occurrence within MaxLag lands in the same block or the next,
//     so sum-of-block-count-products over adjacent blocks is >= the true
//     total, and pruning on it stays conservative. O(sum_i S_i*(S_i+S_{i+1}))
//     for S_i distinct events per block — independent of how densely the
//     trains fire, which keeps raw unfiltered trains from blowing the
//     sweep up past the kernel cost it is trying to save.
//
// budget is exactSweepBudget; only the in-package tests pass another to
// force a sweep.
func prefilterPairs(trains SpikeTrains, ids []int, cfg CrossCorrConfig, budget int) [][2]int32 {
	if cfg.MaxLag < 0 || len(ids) < 2 {
		return nil
	}
	tl := mergeTimeline(trains, ids)
	if len(tl) == 0 {
		return nil
	}

	// One two-pointer pass measures the mass before committing to pay it.
	mass, j := 0, 0
	for i := range tl {
		if j < i+1 {
			j = i + 1
		}
		for j < len(tl) && tl[j].t-tl[i].t <= cfg.MaxLag {
			j++
		}
		mass += j - i - 1
		if mass > budget {
			break
		}
	}

	counts := newPairCounter(len(ids))
	if mass <= budget {
		windowSweep(tl, cfg.MaxLag, counts)
	} else {
		blockSweep(tl, cfg.MaxLag, len(ids), counts)
	}

	need := int32(cfg.MinCount)
	if need < 1 {
		need = 1
	}
	return counts.emit(need)
}

// mergeTimeline flattens the trains into one (t, id)-sorted slice. Sample
// indices are near-dense in practice, so a stable counting sort by t does
// the job in O(N + range) without comparison-sort overhead; wild ranges
// fall back to sort.Slice.
func mergeTimeline(trains SpikeTrains, ids []int) []spike {
	total := 0
	minT, maxT := int(^uint(0)>>1), -int(^uint(0)>>1)-1
	for _, id := range ids {
		tr := trains[id]
		total += len(tr)
		if len(tr) > 0 {
			if tr[0] < minT {
				minT = tr[0]
			}
			if tr[len(tr)-1] > maxT {
				maxT = tr[len(tr)-1]
			}
		}
	}
	if total == 0 {
		return nil
	}
	if span := maxT - minT + 1; span >= 0 && span <= 4*total+1024 {
		// Counting sort: tally per t, prefix to offsets, then place spikes
		// iterating ids in ascending dense order so equal-t entries stay
		// id-sorted (the tally pass is per-train, placement is stable).
		off := make([]int32, span+1)
		for _, id := range ids {
			for _, t := range trains[id] {
				off[t-minT+1]++
			}
		}
		for i := 1; i <= span; i++ {
			off[i] += off[i-1]
		}
		tl := make([]spike, total)
		for idx, id := range ids {
			for _, t := range trains[id] {
				p := t - minT
				tl[off[p]] = spike{t: t, id: int32(idx)}
				off[p]++
			}
		}
		return tl
	}
	tl := make([]spike, 0, total)
	for idx, id := range ids {
		for _, t := range trains[id] {
			tl = append(tl, spike{t: t, id: int32(idx)})
		}
	}
	sort.Slice(tl, func(i, j int) bool {
		if tl[i].t != tl[j].t {
			return tl[i].t < tl[j].t
		}
		return tl[i].id < tl[j].id
	})
	return tl
}

// windowSweep counts every ordered co-occurrence within maxLag once.
func windowSweep(tl []spike, maxLag int, counts *pairCounter) {
	w := newCoWindow(maxLag)
	for _, s := range tl {
		w.expire(s.t)
		w.add(s.t, int(s.id), counts)
	}
}

// blockSweep accumulates, for each ordered pair, an upper bound on its
// total co-occurrence count: with blocks of width maxLag+1, a spike pair
// within maxLag spans at most one block boundary, so every true
// co-occurrence (a, b) is covered by the count product of a's block with
// b's block (itself or the successor). The i-with-i product also covers
// the reverse order of simultaneous spikes, matching windowSweep's
// double-count of delay-0 hits.
func blockSweep(tl []spike, maxLag, events int, counts *pairCounter) {
	g := maxLag + 1
	base := tl[0].t
	nb := (tl[len(tl)-1].t-base)/g + 1

	type occ struct{ id, n int32 }
	blocks := make([][]occ, nb)
	cnt := make([]int32, events)
	touched := make([]int32, 0, events)
	lo := 0
	for b := 0; b < nb; b++ {
		hi := lo
		for hi < len(tl) && (tl[hi].t-base)/g == b {
			if cnt[tl[hi].id] == 0 {
				touched = append(touched, tl[hi].id)
			}
			cnt[tl[hi].id]++
			hi++
		}
		if len(touched) > 0 {
			bl := make([]occ, len(touched))
			for i, id := range touched {
				bl[i] = occ{id: id, n: cnt[id]}
				cnt[id] = 0
			}
			blocks[b] = bl
			touched = touched[:0]
		}
		lo = hi
	}

	for b := 0; b < nb; b++ {
		cur := blocks[b]
		if len(cur) == 0 {
			continue
		}
		var next []occ
		if b+1 < nb {
			next = blocks[b+1]
		}
		for _, a := range cur {
			for _, o := range cur {
				if o.id != a.id {
					counts.add(a.id, o.id, a.n*o.n)
				}
			}
			for _, o := range next {
				if o.id != a.id {
					counts.add(a.id, o.id, a.n*o.n)
				}
			}
		}
	}
}
