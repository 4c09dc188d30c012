package resilience

import (
	"sync"
	"testing"
	"time"
)

// virtualClock is a hand-advanced time source for deterministic breaker
// tests.
type virtualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *virtualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *virtualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testPolicy(clk *virtualClock) Policy {
	return Policy{
		MaxFailures: 3,
		Clock:       clk.now,
	}
}

func TestDoRecoversPanics(t *testing.T) {
	clk := &virtualClock{t: time.Unix(0, 0)}
	s := New(testPolicy(clk))
	if ok := s.Do(func() { panic("boom") }); ok {
		t.Fatal("Do reported a panicking body as ok")
	}
	if ok := s.Do(func() {}); !ok {
		t.Fatal("Do reported a clean body as failed")
	}
	st := s.Stats()
	if st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
	if st.LastPanic != "boom" {
		t.Errorf("LastPanic = %q, want %q", st.LastPanic, "boom")
	}
	if st.Health != Healthy {
		t.Errorf("Health = %v, want Healthy", st.Health)
	}
}

func TestBreakerTripsAfterBudgetExhausted(t *testing.T) {
	clk := &virtualClock{t: time.Unix(0, 0)}
	s := New(testPolicy(clk))
	for i := 0; i < 3; i++ {
		if !s.Allow() {
			t.Fatalf("Allow denied before trip (failure %d)", i)
		}
		s.Do(func() { panic(i) })
		clk.advance(time.Second)
	}
	if !s.Degraded() {
		t.Fatal("breaker did not trip after MaxFailures panics in window")
	}
	if s.Allow() {
		t.Fatal("open breaker allowed an invocation before cooldown")
	}
	if got := s.Stats().Bypassed; got != 1 {
		t.Errorf("Bypassed = %d, want 1", got)
	}
}

func TestBreakerStaysClosedWhenFailuresSpreadPastWindow(t *testing.T) {
	clk := &virtualClock{t: time.Unix(0, 0)}
	s := New(testPolicy(clk))
	for i := 0; i < 6; i++ {
		s.Do(func() { panic(i) })
		clk.advance(40 * time.Second) // only ~1.5 failures per window
	}
	if s.Degraded() {
		t.Fatal("breaker tripped although failures never clustered in one window")
	}
}

func TestHalfOpenProbeClosesBreakerOnSuccess(t *testing.T) {
	clk := &virtualClock{t: time.Unix(0, 0)}
	s := New(testPolicy(clk))
	for i := 0; i < 3; i++ {
		s.Do(func() { panic(i) })
	}
	if !s.Degraded() {
		t.Fatal("breaker did not trip")
	}
	clk.advance(31 * time.Second) // past cooldown: next Allow is a probe
	if !s.Allow() {
		t.Fatal("half-open breaker denied the probe")
	}
	s.Do(func() {})
	if s.Degraded() {
		t.Fatal("successful probe did not close the breaker")
	}
	if !s.Allow() {
		t.Fatal("closed breaker denied an invocation")
	}
}

func TestHalfOpenProbeReopensOnFailure(t *testing.T) {
	clk := &virtualClock{t: time.Unix(0, 0)}
	s := New(testPolicy(clk))
	for i := 0; i < 3; i++ {
		s.Do(func() { panic(i) })
	}
	clk.advance(31 * time.Second)
	if !s.Allow() {
		t.Fatal("half-open breaker denied the probe")
	}
	s.Do(func() { panic("still broken") })
	if !s.Degraded() {
		t.Fatal("failed probe did not re-open the breaker")
	}
	// A fresh cooldown applies from the failed probe.
	clk.advance(time.Second)
	if s.Allow() {
		t.Fatal("re-opened breaker allowed before the new cooldown elapsed")
	}
	clk.advance(30 * time.Second)
	if !s.Allow() {
		t.Fatal("re-opened breaker denied after the new cooldown")
	}
}

// TestBackoffIsJitteredCappedAndDeterministic: a schedule built from
// non-positive parameters falls back to the package defaults, and the
// defaults give the same seeded, capped, jittered delays every time.
func TestBackoffIsJitteredCappedAndDeterministic(t *testing.T) {
	a := NewBackoff(0, 0, 0, 42)
	b := NewBackoff(-time.Second, 0, -1, 42)
	for attempt := 0; attempt < 12; attempt++ {
		da, db := a.Delay(attempt), b.Delay(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed produced %v vs %v", attempt, da, db)
		}
		// Jitter 0.5 bounds the sleep in [0.75, 1.25] * capped exponential.
		if max := time.Duration(float64(DefaultMaxBackoff) * 1.25); da > max {
			t.Fatalf("attempt %d: backoff %v exceeds jittered cap %v", attempt, da, max)
		}
		if min := time.Duration(float64(DefaultBaseBackoff) * 0.75); da < min {
			t.Fatalf("attempt %d: backoff %v below the jittered base %v", attempt, da, min)
		}
	}
}

func TestRecoverDeferredForm(t *testing.T) {
	clk := &virtualClock{t: time.Unix(0, 0)}
	s := New(testPolicy(clk))
	func() {
		defer s.Recover()
		panic("deferred barrier")
	}()
	if got := s.Stats().Panics; got != 1 {
		t.Errorf("Panics = %d, want 1", got)
	}
}

func TestBackoffHelperCappedJitteredDeterministic(t *testing.T) {
	a := NewBackoff(time.Millisecond, 8*time.Millisecond, 0.5, 42)
	b := NewBackoff(time.Millisecond, 8*time.Millisecond, 0.5, 42)
	for attempt := 0; attempt < 10; attempt++ {
		da, db := a.Delay(attempt), b.Delay(attempt)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", attempt, da, db)
		}
		if da <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", attempt, da)
		}
		if max := time.Duration(float64(8*time.Millisecond) * 1.25); da > max {
			t.Fatalf("attempt %d: delay %v exceeds jittered cap %v", attempt, da, max)
		}
	}
	// Different seeds must diverge somewhere in the schedule.
	c := NewBackoff(time.Millisecond, 8*time.Millisecond, 0.5, 43)
	same := true
	for attempt := 0; attempt < 10; attempt++ {
		if NewBackoff(time.Millisecond, 8*time.Millisecond, 0.5, 42).Delay(attempt) != c.Delay(attempt) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestFailCountsTowardBreakerWithTripsAndProbes(t *testing.T) {
	clk := &virtualClock{t: time.Unix(0, 0)}
	s := New(testPolicy(clk))
	// Three external failures inside the window trip the breaker.
	for i := 0; i < 3; i++ {
		s.Fail("incarnation died")
	}
	st := s.Stats()
	if st.Health != Degraded {
		t.Fatalf("Health = %v after budget exhausted, want Degraded", st.Health)
	}
	if st.Trips != 1 {
		t.Errorf("Trips = %d, want 1", st.Trips)
	}
	if st.Panics != 3 {
		t.Errorf("Panics = %d, want 3 (Fail shares the panic accounting)", st.Panics)
	}
	// Before cooldown: denied, counted as bypassed, no probe.
	if s.Allow() {
		t.Fatal("Allow admitted work before cooldown")
	}
	// After cooldown: exactly one half-open probe admitted.
	clk.advance(31 * time.Second)
	if !s.Allow() {
		t.Fatal("Allow denied the half-open probe after cooldown")
	}
	if got := s.Stats().Probes; got != 1 {
		t.Errorf("Probes = %d, want 1", got)
	}
	// Failed probe re-opens and counts another trip.
	s.Fail("probe incarnation died")
	st = s.Stats()
	if st.Health != Degraded || st.Trips != 2 {
		t.Fatalf("after failed probe: Health=%v Trips=%d, want Degraded/2", st.Health, st.Trips)
	}
	// Successful probe closes the breaker.
	clk.advance(31 * time.Second)
	if !s.Allow() {
		t.Fatal("Allow denied the second probe")
	}
	s.OK()
	st = s.Stats()
	if st.Health != Healthy {
		t.Fatalf("Health = %v after successful probe, want Healthy", st.Health)
	}
	if st.Probes != 2 {
		t.Errorf("Probes = %d, want 2", st.Probes)
	}
}
