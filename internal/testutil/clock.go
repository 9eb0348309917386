package testutil

import (
	"sync"
	"testing"
	"time"
)

// ManualClock is a clock that moves only when a test moves it, so a
// timeout test pins the exact virtual instant a deadline, retry or
// heartbeat fires at. It satisfies the cluster transport's Clock (Now and
// AfterFunc). The zero value reads 0 with nothing armed.
type ManualClock struct {
	mu     sync.Mutex
	armed  *sync.Cond // wakes WaitArmed; made on first use
	now    int64
	seq    int64
	timers []*manualTimer
}

type manualTimer struct {
	at, seq int64
	f       func()
}

// Now returns the clock's instant in nanoseconds.
func (c *ManualClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc arms f to run once the clock has advanced by d; Advance runs
// it. A d of zero or less runs f at once, on its own goroutine.
func (c *ManualClock) AfterFunc(d time.Duration, f func()) func() bool {
	if d <= 0 {
		go f()
		return func() bool { return false }
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	t := &manualTimer{at: c.now + int64(d), seq: c.seq, f: f}
	c.timers = append(c.timers, t)
	c.cond().Broadcast()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, p := range c.timers {
			if p == t {
				c.timers = append(c.timers[:i], c.timers[i+1:]...)
				return true
			}
		}
		return false
	}
}

// Advance moves the clock d forward. Every timer falling due on the way
// runs on this goroutine, earliest first (first armed among equals), with
// Now reading its instant; a timer its callback arms runs too if it falls
// due by the end. A timer another goroutine arms in reaction runs only if
// it was armed before Advance reaches its instant: a test that must see it
// calls WaitArmed first.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	end := c.now + int64(d)
	for {
		next := -1
		for i, t := range c.timers {
			if t.at <= end && (next < 0 || t.at < c.timers[next].at ||
				t.at == c.timers[next].at && t.seq < c.timers[next].seq) {
				next = i
			}
		}
		if next < 0 {
			c.now = end
			c.mu.Unlock()
			return
		}
		t := c.timers[next]
		c.timers = append(c.timers[:next], c.timers[next+1:]...)
		c.now = t.at
		c.mu.Unlock()
		t.f()
		c.mu.Lock()
	}
}

// WaitArmed blocks until at least n timers are armed and not yet run or
// stopped: what a test waits for before it advances past an instant a
// goroutine of the code under test is about to wait for. It fails t if
// that takes hangGuard of wall time.
func (c *ManualClock) WaitArmed(t testing.TB, n int) {
	t.Helper()
	late := false
	guard := time.AfterFunc(hangGuard, func() {
		c.mu.Lock()
		late = true
		c.cond().Broadcast()
		c.mu.Unlock()
	})
	defer guard.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		if late {
			t.Fatalf("%d timer(s) armed after %v of wall time, want %d", len(c.timers), hangGuard, n)
		}
		c.cond().Wait()
	}
}

// hangGuard bounds, in wall time, a manual-clock test's wait for what its
// clock cannot bring about: a regression that never arms a timer, or
// never returns, fails the test with a message instead of hanging it.
const hangGuard = 10 * time.Second

// Await receives from ch, failing t with what if nothing arrives within
// hangGuard of wall time.
func Await[T any](t testing.TB, ch <-chan T, what string) T {
	t.Helper()
	var v T
	select {
	case v = <-ch:
	case <-time.After(hangGuard):
		t.Fatalf("no %s after %v of wall time", what, hangGuard)
	}
	return v
}

func (c *ManualClock) cond() *sync.Cond {
	if c.armed == nil {
		c.armed = sync.NewCond(&c.mu)
	}
	return c.armed
}
