package transport

import (
	"errors"
	"slices"
	"testing"
	"time"

	"pipebd/internal/testutil"
)

// sleepClock is a manual clock that hands the test each wait armed on it,
// once armed, so the test advances exactly to the next wake-up.
type sleepClock struct {
	*testutil.ManualClock
	armed chan time.Duration
}

func (c sleepClock) AfterFunc(d time.Duration, f func()) func() bool {
	stop := c.ManualClock.AfterFunc(d, f)
	c.armed <- d
	return stop
}

// retryTries runs Retry on a manual clock against a peer that comes up at
// up and reports the instant of every try and Retry's result.
func retryTries(t *testing.T, deadline, up time.Duration) ([]time.Duration, error) {
	t.Helper()
	clock := sleepClock{&testutil.ManualClock{}, make(chan time.Duration)}
	var tries []time.Duration
	done := make(chan error, 1)
	go func() {
		done <- Retry(clock, int64(deadline), nil, func() error {
			now := time.Duration(clock.Now())
			tries = append(tries, now)
			if now < up {
				return errors.New("not listening yet")
			}
			return nil
		})
	}()
	for {
		select {
		case d := <-clock.armed:
			clock.Advance(d)
		case err := <-done:
			return tries, err
		case <-time.After(10 * time.Second): // of wall time, a hang guard
			t.Fatal("Retry neither slept nor returned")
		}
	}
}

// TestRetryFindsALatePeer: the backoff doubles from 10 ms and stops at
// 50 ms, so a peer that comes up at 6 s of a 10 s deadline is found by
// the next try, at 6.02 s; an uncapped backoff would try next at the
// deadline, too late for a handshake bounded by it. A peer that never
// comes up gets a last try at the deadline itself.
func TestRetryFindsALatePeer(t *testing.T) {
	schedule := func(until time.Duration) []time.Duration {
		at := []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond, 70 * time.Millisecond}
		for at[len(at)-1] < until {
			at = append(at, min(at[len(at)-1]+50*time.Millisecond, until))
		}
		return at
	}
	tries, err := retryTries(t, 10*time.Second, 6*time.Second)
	if want := schedule(6020 * time.Millisecond); err != nil || !slices.Equal(tries, want) {
		t.Fatalf("late peer: tries at %v (%v), want %v and success", tries, err, want)
	}
	tries, err = retryTries(t, 200*time.Millisecond, time.Hour)
	if want := schedule(200 * time.Millisecond); err == nil || !slices.Equal(tries, want) {
		t.Fatalf("absent peer: tries at %v (%v), want %v and the last try's error", tries, err, want)
	}
}
