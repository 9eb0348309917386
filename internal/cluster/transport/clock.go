package transport

import (
	"sync"
	"time"

	"pipebd/internal/obs"
)

// Clock is the one time source every wait of the cluster reads: the
// coordinator's heartbeat tick and frame stamps, the join, placement, mesh
// and redial deadlines, a worker's beacon, a Resumable's backoff and
// budget, and Chaos's partition and delay windows. Its Now is the
// obs.Clock spans read, in nanoseconds. A component reaches it through
// the transport handle it already holds (ClockOf): a Loopback carries the
// one a test sets, Chaos and Meter forward their inner network's, and
// everything else runs on Wall.
type Clock interface {
	obs.Clock
	// AfterFunc calls f on its own goroutine once d has passed on this
	// clock, unless stop runs first; stop reports whether it did stop f.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Wall is the production clock: Unix nanoseconds that advance with the
// process's monotonic clock, so a step of the system time moves no
// deadline.
var Wall Clock = wallClock{}

type wallClock struct{}

var wallStart = time.Now()

func (wallClock) Now() int64 { return wallStart.UnixNano() + int64(time.Since(wallStart)) }

func (wallClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// clocked is a transport handle that carries a clock.
type clocked interface{ clock() Clock }

// ClockOf returns the clock a Network or Listener carries, or Wall.
func ClockOf(handle any) Clock {
	if h, ok := handle.(clocked); ok && h.clock() != nil {
		return h.clock()
	}
	return Wall
}

// Deadline is the instant d from now on c.
func Deadline(c Clock, d time.Duration) int64 { return c.Now() + int64(d) }

// Retry calls try until it succeeds, sleeping on c between tries — 10 ms,
// doubling up to 50 ms so a peer that comes up late in a long deadline is
// found soon after, never past deadline — and returns nil once try does,
// or try's last error once the deadline has passed or cancel is closed. A
// try is made at the deadline itself.
func Retry(c Clock, deadline int64, cancel <-chan struct{}, try func() error) error {
	for backoff := 10 * time.Millisecond; ; backoff = min(2*backoff, 50*time.Millisecond) {
		err := try()
		if err == nil {
			return nil
		}
		left := time.Duration(deadline - c.Now())
		if left <= 0 || !Sleep(c, min(backoff, left), cancel) {
			return err
		}
	}
}

// Sleep waits d on c; it reports false if cancel closed first (a nil
// cancel never does).
func Sleep(c Clock, d time.Duration, cancel <-chan struct{}) bool {
	woke := make(chan struct{})
	stop := c.AfterFunc(d, func() { close(woke) })
	select {
	case <-woke:
		return true
	case <-cancel:
		stop()
		return false
	}
}

// WaitCond waits on cond, whose lock the caller holds, until done — read
// under that lock — reports true or c reaches deadline, and reports
// whether done held. Whatever makes done true must Broadcast cond; the
// deadline's wake-up is a timer on c, so nothing polls.
func WaitCond(c Clock, cond *sync.Cond, deadline int64, done func() bool) bool {
	if done() {
		return true
	}
	stop := c.AfterFunc(time.Duration(deadline-c.Now()), func() {
		cond.L.Lock()
		cond.Broadcast()
		cond.L.Unlock()
	})
	defer stop()
	for !done() {
		if c.Now() >= deadline {
			return false
		}
		cond.Wait()
	}
	return true
}
