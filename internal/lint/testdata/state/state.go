// Package statefix exercises elsastate: annotation-declared lifecycle
// protocols verified by the may-state interpreter — requires
// violations, dead transitions, branch union-merge, loops carried to a
// fixpoint, fresh composite literals, and the directive grammar's own
// error surface.
package statefix

// ---- the session protocol (the Monitor/Session shape) ----

//elsa:state open closed
type Session struct{ closed bool }

//elsa:requires open
func (s *Session) Feed(v int) int {
	if s.closed {
		return 0
	}
	return v
}

//elsa:requires open
//elsa:transition open->open
func (s *Session) Snapshot() {}

//elsa:transition open->closed closed->closed
func (s *Session) Close() { s.closed = true }

// Result is unannotated: an observer that keeps the state.
func (s *Session) Result() int { return 0 }

func feedAfterClose(s *Session) {
	s.Close()
	s.Feed(1) // want "Session.Feed requires state open, but s may be in state closed"
}

func feedThenClose(s *Session) {
	s.Feed(1)
	s.Close()
	s.Result() // observers stay legal after Close
}

func doubleClose(s *Session) {
	s.Close()
	s.Close() // closed->closed: idempotent Close is declared legal
}

func snapshotAfterClose(s *Session) {
	s.Close()
	s.Snapshot() // want "Session.Snapshot requires state open, but s may be in state closed"
}

// ---- branch union-merge ----

func maybeClosed(s *Session, b bool) {
	if b {
		s.Close()
	}
	s.Feed(1) // want "Session.Feed requires state open, but s may be in state closed"
}

// closeIdempotent is the early-return shape: the terminated branch's
// state must not leak into the fall-through.
func closeIdempotent(s *Session, done bool) {
	if done {
		s.Close()
		return
	}
	s.Feed(1)
}

// exhaustiveClose: the closing arm returns, so the fall-through only
// sees the feeding arm.
func exhaustiveClose(s *Session, k int) {
	switch k {
	case 0:
		s.Close()
		return
	default:
		s.Feed(1)
	}
	s.Feed(2)
}

// serveLoop is the fleet incarnation shape: Close and Feed in parallel
// switch arms of a worker loop, and the closing arm ends the loop, so
// no later iteration feeds the closed session.
func serveLoop(s *Session, reqs []int) {
	for _, r := range reqs {
		switch r {
		case 0:
			s.Feed(r)
		default:
			s.Close()
			return
		}
	}
}

// serveLoopOn keeps serving after the closing arm: the next iteration
// feeds a closed session.
func serveLoopOn(s *Session, reqs []int) {
	for _, r := range reqs {
		switch r {
		case 0:
			s.Feed(r) // want "Session.Feed requires state open, but s may be in state closed"
		default:
			s.Close()
		}
	}
}

// feedThenMaybeClose closes on some iteration; the iteration after it
// feeds the closed session.
func feedThenMaybeClose(s *Session, vals []int) {
	for _, v := range vals {
		s.Feed(v) // want "Session.Feed requires state open, but s may be in state closed"
		if v == 0 {
			s.Close()
		}
	}
}

// closeAndContinue: continue carries the closed session to the next
// iteration's feed.
func closeAndContinue(s *Session, vals []int) {
	for _, v := range vals {
		if v == 0 {
			s.Close()
			continue
		}
		s.Feed(v) // want "Session.Feed requires state open, but s may be in state closed"
	}
}

// closeEach rebinds s on every iteration: each session is fed, then
// closed, once.
func closeEach(ss []*Session) {
	for _, s := range ss {
		s.Feed(1)
		s.Close()
	}
}

// ---- defer / go / closures ----

func deferClose(s *Session, vals []int) {
	defer s.Close()
	for _, v := range vals {
		s.Feed(v)
	}
}

func deferLitClose(s *Session) {
	defer func() {
		s.Close()
	}()
	s.Feed(1)
}

func do(f func()) { f() }

// closureClose: a closure argument may run synchronously inside the
// callee, so its effects merge back as a may-executed branch.
func closureClose(s *Session) {
	do(func() {
		s.Close()
	})
	s.Feed(1) // want "Session.Feed requires state open, but s may be in state closed"
}

// ---- field cells ----

type holder struct{ s *Session }

func fieldClose(h *holder) {
	h.s.Close()
	h.s.Feed(1) // want "Session.Feed requires state open, but h.s may be in state closed"
}

// ---- the slot protocol (the fleet shard shape) ----

//elsa:state down live
type Slot struct{ on bool }

//elsa:transition down->live
func (sl *Slot) Spawn() { sl.on = true }

//elsa:transition live->down down->down
func (sl *Slot) Retire() { sl.on = false }

//elsa:requires live
func (sl *Slot) Commit() {}

// handoff is the legal order: snapshot commit while live, then retire.
func handoff(sl *Slot) {
	sl.Spawn()
	sl.Commit()
	sl.Retire()
}

// retireEarly is the handoff mutation: retiring before the snapshot
// commit loses the incarnation's tail.
func retireEarly(sl *Slot) {
	sl.Spawn()
	sl.Retire()
	sl.Commit() // want "Slot.Commit requires state live, but sl may be in state down"
}

// doubleSpawn: a composite literal is provably fresh, so it starts in
// the protocol's initial state and the second Spawn has no edge.
func doubleSpawn() {
	sl := &Slot{}
	sl.Spawn()
	sl.Spawn() // want "Slot.Spawn has no transition from state live"
}

func commitBeforeSpawn() {
	sl := &Slot{}
	sl.Commit() // want "Slot.Commit requires state live, but sl may be in state down"
}

// passedAway: handing the slot to another function resets it — the
// callee is checked on its own parameter.
func inspect(sl *Slot) {}

func passedAway(sl *Slot) {
	sl.Spawn()
	sl.Retire()
	inspect(sl)
	sl.Commit() // unconstrained again after the call
}

// ---- interface protocols ----

//elsa:state open closed
type Backend interface {
	//elsa:requires open
	Next() (int, error)

	//elsa:transition open->closed closed->closed
	Close() error
}

func useBackend(b Backend) {
	b.Close()
	b.Next() // want "Backend.Next requires state open, but b may be in state closed"
}

func drainBackend(b Backend) {
	for {
		if _, err := b.Next(); err != nil {
			break
		}
	}
	b.Close()
}

// ---- directive grammar errors ----

//elsa:state lone
type Single struct{} // want "//elsa:state on Single needs at least two states"

// want "malformed transition"
//elsa:transition open>closed
func (s *Session) badArrow() {}

// want "names a state outside"
//elsa:transition open->gone
func (s *Session) badTarget() {}

// want "names a state outside"
//elsa:requires busted
func (s *Session) badRequires() {}

type Plain struct{}

//elsa:requires open
func (p *Plain) orphan() {} // want "receiver type has no //elsa:state protocol"
