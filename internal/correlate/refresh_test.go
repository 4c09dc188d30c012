package correlate

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/elsa-hpc/elsa/internal/bench"
	"github.com/elsa-hpc/elsa/internal/gen"
	"github.com/elsa-hpc/elsa/internal/gradual"
	"github.com/elsa-hpc/elsa/internal/helo"
	"github.com/elsa-hpc/elsa/internal/logs"
	"github.com/elsa-hpc/elsa/internal/sig"
)

// cascadeTrains builds outlier spike trains with a genuine 1 -> 2 -> 3
// cascade plus background noise, the shape the hybrid pipeline feeds the
// miner after outlier filtering.
func cascadeTrains(rng *rand.Rand, n int) sig.SpikeTrains {
	trains := sig.SpikeTrains{}
	var s1, s2, s3, s9 []int
	for i := 0; i < n; i++ {
		base := i*997 + rng.Intn(5)
		s1 = append(s1, base)
		s2 = append(s2, base+6)
		s3 = append(s3, base+10)
		s9 = append(s9, i*1013+37)
	}
	trains[1], trains[2], trains[3], trains[9] = s1, s2, s3, s9
	return trains
}

// feedAccum replays trains tick by tick, as the pipeline tap would.
func feedAccum(ac *sig.Accumulator, trains sig.SpikeTrains, from int) {
	last := -1
	ids := make([]int, 0, len(trains))
	for id, tr := range trains {
		ids = append(ids, id)
		if len(tr) > 0 && tr[len(tr)-1] > last {
			last = tr[len(tr)-1]
		}
	}
	sort.Ints(ids)
	var outliers []int
	for t := from; t <= last; t++ {
		outliers = outliers[:0]
		for _, id := range ids {
			tr := trains[id]
			if i := sort.SearchInts(tr, t); i < len(tr) && tr[i] == t {
				outliers = append(outliers, id)
			}
		}
		ac.ObserveTick(t, sig.Counts{}, outliers)
	}
}

// emptyModel builds a trained-model shell with severities but no chains,
// the state a monitor holds right after loading a fresh model.
func emptyModel(mode Mode, cfg Config) *Model {
	return &Model{
		Mode:       mode,
		Step:       cfg.Step,
		TrainStart: t0,
		Profiles:   make(map[int]sig.Profile),
		Thresholds: make(map[int]float64),
		Severity:   make(map[int]logs.Severity),
	}
}

func accumFor(cfg Config) *sig.Accumulator {
	return sig.NewAccumulator(sig.AccumConfig{
		MaxLag:   cfg.CrossCorr.MaxLag,
		MinCount: cfg.CrossCorr.MinCount,
	})
}

// TestRefreshMatchesBatchMine: a first Refresh over accumulated counters
// must produce exactly the chains the batch seed-and-mine path extracts
// from the same trains — the accumulator's exact counters admit the same
// candidate set the batch prefilter does.
func TestRefreshMatchesBatchMine(t *testing.T) {
	for _, mode := range []Mode{Hybrid, SignalOnly} {
		rng := rand.New(rand.NewSource(31))
		trains := cascadeTrains(rng, 40)
		cfg := DefaultConfig()

		ac := accumFor(cfg)
		feedAccum(ac, trains, 0)
		ac.NoteSeverity(3, int(logs.Error))

		m := emptyModel(mode, cfg)
		st := m.Refresh(ac, cfg)
		if !st.Remined {
			t.Fatalf("%v: first refresh must run the full miner", mode)
		}
		if st.Duration <= 0 || st.Chains != len(m.Chains) {
			t.Fatalf("%v: stats inconsistent: %+v", mode, st)
		}

		// Reference: the batch path over identical trains.
		horizon := ac.LastTick() + 1
		cc, mining := tuneForMode(mode, horizon, cfg)
		seeds := sig.AllPairs(trains, cc)
		ref := emptyModel(mode, cfg)
		ref.Severity[3] = logs.Error
		var want []Chain
		if mode == SignalOnly {
			for _, s := range pairItemsets(trains, seeds, mining) {
				want = append(want, ref.newChain(s))
			}
		} else {
			for _, s := range gradual.Mine(trains, seeds, mining) {
				want = append(want, ref.newChain(s))
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })

		if !reflect.DeepEqual(m.Chains, want) {
			t.Fatalf("%v: refresh chains diverge from batch mine\n got=%v\nwant=%v", mode, m.Chains, want)
		}
		if len(m.Chains) == 0 {
			t.Fatalf("%v: no chains extracted", mode)
		}
	}
}

// TestRefreshFastPathSkipsMiner: when new data only repeats existing
// co-occurrence structure the seed signature is unchanged, so the second
// refresh must take the rescore fast path yet still fold the new support
// into the chains.
func TestRefreshFastPathSkipsMiner(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	cfg := DefaultConfig()
	ac := accumFor(cfg)
	m := emptyModel(Hybrid, cfg)

	first := cascadeTrains(rng, 40)
	feedAccum(ac, first, 0)
	ac.NoteSeverity(3, int(logs.Error))
	st1 := m.Refresh(ac, cfg)
	if !st1.Remined || len(m.Chains) == 0 {
		t.Fatalf("first refresh: %+v, chains=%d", st1, len(m.Chains))
	}
	support1 := maxSupport(m.Chains)

	// Extend the stream with more occurrences of the same cascade at the
	// same delays: counters move, structure does not.
	more := cascadeTrains(rand.New(rand.NewSource(47)), 80)
	feedAccum(ac, more, ac.LastTick()+1)
	st2 := m.Refresh(ac, cfg)
	if st2.Remined {
		t.Fatalf("unchanged seed structure re-ran the miner: %+v", st2)
	}
	if st2.Dirty == 0 || st2.Scored == 0 {
		t.Fatalf("second refresh saw no dirty pairs: %+v", st2)
	}
	if got := maxSupport(m.Chains); got <= support1 {
		t.Fatalf("fast path did not fold in new support: %d -> %d", support1, got)
	}
	// A refresh with no new data at all drains nothing and changes nothing.
	before := append([]Chain(nil), m.Chains...)
	st3 := m.Refresh(ac, cfg)
	if st3.Dirty != 0 || st3.Remined || !reflect.DeepEqual(m.Chains, before) {
		t.Fatalf("idle refresh perturbed the model: %+v", st3)
	}
}

func maxSupport(chains []Chain) int {
	best := 0
	for _, c := range chains {
		if c.Support > best {
			best = c.Support
		}
	}
	return best
}

// TestRefreshStateRoundTrip: serialising the refresher and restoring it
// into a fresh model must leave both copies indistinguishable — same
// fast-path decisions, same chains — as they continue over new data.
func TestRefreshStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	ac := accumFor(cfg)
	m := emptyModel(Hybrid, cfg)
	feedAccum(ac, cascadeTrains(rng, 40), 0)
	ac.NoteSeverity(3, int(logs.Error))
	m.Refresh(ac, cfg)

	// Snapshot both the accumulator and the refresher through JSON.
	blob, err := json.Marshal(struct {
		Acc     *sig.AccumState
		Refresh *RefreshState
		Model   *Model
	}{ac.State(), m.RefreshState(), m})
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		Acc     *sig.AccumState
		Refresh *RefreshState
		Model   *Model
	}
	if err := json.Unmarshal(blob, &dec); err != nil {
		t.Fatal(err)
	}
	ac2, err := sig.RestoreAccumulator(sig.AccumConfig{
		MaxLag: cfg.CrossCorr.MaxLag, MinCount: cfg.CrossCorr.MinCount,
	}, dec.Acc)
	if err != nil {
		t.Fatal(err)
	}
	m2 := dec.Model
	m2.RestoreRefreshState(dec.Refresh)

	more := cascadeTrains(rand.New(rand.NewSource(5)), 70)
	feedAccum(ac, more, ac.LastTick()+1)
	feedAccum(ac2, more, ac2.LastTick()+1)
	st1 := m.Refresh(ac, cfg)
	st2 := m2.Refresh(ac2, cfg)
	st1.Duration, st2.Duration = 0, 0
	if st1 != st2 {
		t.Fatalf("refresh stats diverge after restore: %+v vs %+v", st1, st2)
	}
	if !reflect.DeepEqual(m.Chains, m2.Chains) {
		t.Fatalf("chains diverge after restore\n got=%v\nwant=%v", m2.Chains, m.Chains)
	}
	if m.RefreshState().Mined != m2.RefreshState().Mined {
		t.Fatal("mined signatures diverge after restore")
	}
	// RestoreRefreshState(nil) resets to the never-refreshed state.
	m2.RestoreRefreshState(nil)
	if m2.RefreshState() != nil {
		t.Fatal("nil restore did not clear the refresher")
	}
}

// BenchmarkRefreshSteadyState times the steady-state incremental
// retraining round, the per-round cost elsamon's -refresh-every pays
// instead of a retrain: a hybrid model trained on one bgl200 day, an
// accumulator that replayed the day's tick stream once (outside timing,
// as the monitor's tap would have built it live) and was primed by the
// initial full mine, then one more closed tick and one Refresh per
// iteration. The mean folds in the rate-limited full mines (one per
// remineEvery rounds under seed churn) alongside the re-score fast path.
// CI gates it under 100 ms/op; the repo benchmark's refresh_ms_p50 is the
// first three rounds after a short horizon, not this.
func BenchmarkRefreshSteadyState(b *testing.B) {
	cfg := DefaultConfig()
	res := gen.New(bench.ScaledBGL(200), 1).Generate(t0, 24*time.Hour)
	helo.New(0).Assign(res.Records)
	horizon := int(res.End.Sub(res.Start) / cfg.Step)
	trainStart := time.Now()
	model := Train(res.Records, res.Start, res.End, Hybrid, cfg)
	trainMs := float64(time.Since(trainStart)) / float64(time.Millisecond)

	// Each tick's distinct event ids, ascending: the raw occurrence trains
	// stand in for the outlier hit sets.
	byTick := make([][]int, horizon)
	for _, r := range res.Records {
		if t := int(r.Time.Sub(res.Start) / cfg.Step); t < horizon {
			byTick[t] = append(byTick[t], r.EventID)
		}
	}
	for t, evs := range byTick {
		slices.Sort(evs)
		byTick[t] = slices.Compact(evs)
	}
	acfg := AccumConfigFor(Hybrid, cfg)
	acfg.HorizonCap = horizon
	acc := sig.NewAccumulator(acfg)
	next := 0
	observe := func() {
		evs := byTick[next%horizon]
		var counts sig.Counts
		for _, id := range evs {
			if counts.Slot(id) < 0 {
				counts.Add(id, 1)
			}
		}
		acc.ObserveTick(next, counts, evs)
		next++
	}
	for next < horizon {
		observe()
	}
	model.Refresh(acc, cfg) // prime: the initial full mine is not the steady state

	var st RefreshStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		observe() // one closed tick between rounds
		b.StartTimer()
		st = model.Refresh(acc, cfg)
	}
	b.StopTimer()
	if st.Chains == 0 {
		b.Fatal("primed bgl200 model refreshed to zero chains: the round timed nothing")
	}
	b.ReportMetric(float64(st.Dirty), "dirty_pairs")
	b.ReportMetric(float64(st.Seeds), "seeds")
	b.ReportMetric(float64(st.Chains), "chains")
	b.ReportMetric(trainMs, "train_ms") // one batch retrain of the same day, what a round replaces
}

// referenceRefresh is Refresh as it stood before sig.ScorePairs, frozen:
// the dirty pairs are re-scored one by one on the calling goroutine
// through the one-off kernel, the simultaneous-pair rule and the mode
// switch from seeds to chains are inline. TestRefreshMatchesSerialReference
// holds Refresh to it round for round; it is not to be optimised.
func referenceRefresh(m *Model, acc *sig.Accumulator, cfg Config) RefreshStats {
	if cfg.Step <= 0 {
		cfg.Step = sig.DefaultStep
	}
	horizon := acc.LastTick() + 1
	cc, mining := tuneForMode(m.Mode, horizon, cfg)

	if m.ref == nil {
		m.ref = &refresher{
			seeds: make(map[[2]int]sig.PairCorrelation),
			tel:   sig.NewPairTelemetry(),
		}
	}
	r := m.ref
	trains := acc.Trains()
	r.tel.BeginRound(acc.Events())

	for id, es := range acc.EventStats() {
		if sev := logs.Severity(es.MaxSeverity); sev > m.Severity[id] {
			m.Severity[id] = sev
		}
	}

	dirty := acc.DrainDirty()
	st := RefreshStats{Dirty: len(dirty)}
	for _, d := range dirty {
		a, b := trains[d.A], trains[d.B]
		if len(a) == 0 || len(b) == 0 {
			delete(r.seeds, [2]int{d.A, d.B})
			r.tel.NoteKept(d.A, d.B, false)
			continue
		}
		st.Scored++
		r.tel.NoteScored(d.A, d.B)
		delay, count, score, ok := sig.CrossCorrelate(a, b, cc)
		if ok && delay == 0 && d.A > d.B {
			ok = false // keep simultaneous pairs once, as the batch scan does
		}
		if ok {
			r.seeds[[2]int{d.A, d.B}] = sig.PairCorrelation{
				A: d.A, B: d.B, Delay: delay, Count: count, Score: score,
			}
		} else {
			delete(r.seeds, [2]int{d.A, d.B})
		}
		r.tel.NoteKept(d.A, d.B, ok)
	}

	seeds := r.seedList()
	signature := seedSignature(seeds)
	r.sinceMine++
	if signature != r.mined && (r.mined == "" || r.sinceMine >= remineEvery) {
		st.Remined = true
		m.Chains = m.Chains[:0]
		switch m.Mode {
		case Hybrid, DataMiningOnly:
			for _, s := range gradual.Mine(trains, seeds, mining) {
				m.Chains = append(m.Chains, m.newChain(s))
			}
		case SignalOnly:
			for _, s := range pairItemsets(trains, seeds, mining) {
				m.Chains = append(m.Chains, m.newChain(s))
			}
		}
		r.mined = signature
		r.sinceMine = 0
	} else {
		sets := make([]gradual.Itemset, 0, len(m.Chains))
		for _, c := range m.Chains {
			sets = append(sets, c.Itemset)
		}
		m.Chains = m.Chains[:0]
		for _, s := range gradual.Rescore(trains, sets, mining) {
			m.Chains = append(m.Chains, m.newChain(s))
		}
	}
	sort.Slice(m.Chains, func(i, j int) bool { return m.Chains[i].Key() < m.Chains[j].Key() })

	m.TrainEnd = m.TrainStart.Add(time.Duration(horizon) * cfg.Step)
	st.Seeds = len(seeds)
	st.Chains = len(m.Chains)
	st.Pairs = r.tel.Stats()
	m.Stats.Pairs = st.Pairs
	return st
}

// outlierTicks returns, per tick of the first ticks after start, the ids
// of the events with an outlier on it, ascending: the hit sets a monitor's
// filter hands its accumulator, from the characterisation training runs.
func outlierTicks(recs []logs.Record, start time.Time, cfg Config, ticks int) [][]int {
	occ := make(map[int][]int)
	for _, r := range recs {
		t := int(r.Time.Sub(start) / cfg.Step)
		if train := occ[r.EventID]; t >= 0 && t < ticks && (len(train) == 0 || train[len(train)-1] != t) {
			occ[r.EventID] = append(train, t)
		}
	}
	byTick := make([][]int, ticks)
	for id, train := range characterize(occ, ticks, Hybrid, cfg, emptyModel(Hybrid, cfg)) {
		for _, t := range train {
			byTick[t] = append(byTick[t], id)
		}
	}
	for _, ids := range byTick {
		slices.Sort(ids)
	}
	return byTick
}

// TestRefreshMatchesSerialReference: a model trained on a bgl and on a
// bgl200 horizon, then refreshed round after round over the stream that
// follows, reads the same RefreshState bytes, the same model bytes (chain
// keys included) and the same RefreshStats (Duration aside) as a clone
// refreshed by the frozen serial reference over an identically fed
// accumulator. Every round but the first re-scores the live chains, and
// the bgl run is long enough for the rate-limited miner to re-run; its
// window is shorter than the lag window, so rounds drain dirty pairs whose
// train was trimmed to empty, and both runs end on a stream gap longer
// than the window, which trims every train the last round dirtied.
func TestRefreshMatchesSerialReference(t *testing.T) {
	cases := []struct {
		name          string
		prof          gen.Profile
		train         time.Duration
		horizonCap    int // accumulator train window, ticks
		every, rounds int // ticks between refreshes, refreshes
	}{
		{"bgl", gen.BlueGeneL(), 24 * time.Hour, 180, 432, 40},
		{"bgl200", bench.ScaledBGL(200), 12 * time.Hour, 4320, 360, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			trainTicks := int(tc.train / cfg.Step)
			ticks := trainTicks + tc.every*tc.rounds
			res := gen.New(tc.prof, 1).Generate(t0, time.Duration(ticks)*cfg.Step)
			helo.New(0).Assign(res.Records)
			blob, err := json.Marshal(Train(res.Records, t0, t0.Add(tc.train), Hybrid, cfg))
			if err != nil {
				t.Fatal(err)
			}
			var got, want *Model
			if err := json.Unmarshal(blob, &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(blob, &want); err != nil {
				t.Fatal(err)
			}

			// The accumulators watch the training span too; a refresh then
			// closes every round of the stream after it.
			byTick := outlierTicks(res.Records, t0, cfg, ticks)
			acfg := AccumConfigFor(Hybrid, cfg)
			acfg.HorizonCap = tc.horizonCap
			accGot, accWant := sig.NewAccumulator(acfg), sig.NewAccumulator(acfg)
			feed := func(tick int, hits []int) {
				var counts sig.Counts
				for _, id := range hits {
					if counts.Slot(id) < 0 {
						counts.Add(id, 1)
					}
				}
				accGot.ObserveTick(tick, counts, hits)
				accWant.ObserveTick(tick, counts, hits)
			}
			for tick := 0; tick < trainTicks; tick++ {
				feed(tick, byTick[tick])
			}
			trimmedDirty, laterRemine := false, false
			for round := 0; round < tc.rounds; round++ {
				from := trainTicks + round*tc.every
				for tick := from; tick < from+tc.every; tick++ {
					feed(tick, byTick[tick])
				}
				if round == tc.rounds-1 {
					feed(from+tc.every+tc.horizonCap, byTick[from])
				}
				stGot, stWant := got.Refresh(accGot, cfg), referenceRefresh(want, accWant, cfg)
				stGot.Duration = 0
				if stGot != stWant {
					t.Fatalf("round %d: stats %+v, serial reference %+v", round, stGot, stWant)
				}
				if !slices.Equal(chainKeys(got), chainKeys(want)) {
					t.Fatalf("round %d: chains %v, serial reference %v", round, chainKeys(got), chainKeys(want))
				}
				for _, pair := range [][2]any{{got.RefreshState(), want.RefreshState()}, {got, want}} {
					g, err := json.Marshal(pair[0])
					if err != nil {
						t.Fatal(err)
					}
					w, err := json.Marshal(pair[1])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(g, w) {
						t.Fatalf("round %d: %T bytes diverge from the serial reference", round, pair[0])
					}
				}
				trimmedDirty = trimmedDirty || stWant.Dirty > stWant.Scored
				laterRemine = laterRemine || (round > 0 && stWant.Remined)
				if round == 0 && (!stWant.Remined || stWant.Chains == 0) {
					t.Fatalf("first round %+v: want a full mine to a non-empty chain set", stWant)
				}
			}
			if !trimmedDirty {
				t.Error("no round drained a dirty pair whose train was trimmed to empty")
			}
			if tc.rounds > remineEvery && !laterRemine {
				t.Error("the miner never re-ran after the first round")
			}
		})
	}
}

func chainKeys(m *Model) []string {
	keys := make([]string, len(m.Chains))
	for i := range m.Chains {
		keys[i] = m.Chains[i].Key()
	}
	return keys
}
