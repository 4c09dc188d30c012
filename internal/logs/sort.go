package logs

// SortByTime sorts records chronologically and stably: records with equal
// times keep their input order. The result is the one sort.SliceStable
// gives on Time.Before, whenever Before is a strict weak order over recs
// (it is unless recs mixes times that carry a monotonic clock reading with
// times that do not; parsed and generated records carry none).
//
// A log arrives as a few time-sorted sources concatenated, not shuffled,
// so SortByTime merges the maximal sorted runs its input already has. A
// sorted input costs one linear pass and allocates nothing. Otherwise the
// k runs merge through a binary heap of run heads keyed by (time, run
// index), O(n log k) comparisons; the merge writes a permutation of
// source indices, which is applied in place by following its cycles, one
// move per record. The scratch is that index slice plus O(k): never a
// second []Record.
func SortByTime(recs []Record) {
	breaks := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			breaks++
		}
	}
	if breaks == 0 {
		return
	}
	permute(recs, mergeRuns(recs, breaks+1))
}

// runHead is a heap entry: the next unmerged record of one run.
type runHead struct{ at, run int }

// runHeap is a binary min-heap of run heads keyed by (head time, run
// index). Earlier runs hold earlier input positions, so breaking a time
// tie on the run index keeps equal records in input order.
type runHeap struct {
	recs []Record
	h    []runHead
}

func (m *runHeap) less(a, b runHead) bool {
	if c := m.recs[a.at].Time.Compare(m.recs[b.at].Time); c != 0 {
		return c < 0
	}
	return a.run < b.run
}

func (m *runHeap) down(i int) {
	h := m.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && m.less(h[c+1], h[c]) {
			c++
		}
		if !m.less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// mergeRuns returns perm with perm[i] the source index of the record
// that belongs at position i: the stable merge of recs' k sorted runs.
func mergeRuns(recs []Record, k int) []int {
	ends := make([]int, 0, k)
	m := runHeap{recs: recs, h: make([]runHead, 1, k)}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			ends = append(ends, i)
			m.h = append(m.h, runHead{i, len(m.h)})
		}
	}
	ends = append(ends, len(recs))
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}

	perm := make([]int, len(recs))
	for out := range perm {
		top := &m.h[0]
		perm[out] = top.at
		if top.at++; top.at == ends[top.run] {
			m.h[0] = m.h[len(m.h)-1]
			m.h = m.h[:len(m.h)-1]
		}
		m.down(0)
	}
	return perm
}

// permute rearranges recs so the record at source index perm[i] lands at
// position i, one move per record, by walking each cycle of perm once.
// It consumes perm: a visited position is marked as a fixed point.
func permute(recs []Record, perm []int) {
	for i := range perm {
		if perm[i] == i {
			continue
		}
		hold := recs[i]
		j := i
		for {
			src := perm[j]
			perm[j] = j
			if src == i {
				recs[j] = hold
				break
			}
			recs[j] = recs[src]
			j = src
		}
	}
}
