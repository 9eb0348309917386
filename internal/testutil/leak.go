// Package testutil holds small helpers shared across the repository's
// test suites.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// LeakCheck snapshots the goroutine count and, at cleanup time (after
// the test's own cleanups — workers closed, runs returned, servers shut
// down), insists the count returns to the baseline. It is the
// counted-goroutine assertion guarding fail/teardown paths: a peer dying
// mid-gather (or a debug server left running) must not strand device
// loops, outbox writers, readers, or monitor goroutines.
func LeakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d at start, %d after cleanup\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}
