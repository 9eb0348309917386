package cluster

import (
	"errors"
	"testing"
	"time"

	"pipebd/internal/sched"
)

// TestEventLinesArePinned renders one event of every kind: each line is
// the one pipebd prints for the decision, byte for byte, and the CLI's
// checks and documented runs grep some of them ("restarting every device
// from step", "hub restart under plan").
func TestEventLinesArePinned(t *testing.T) {
	for _, c := range []struct {
		ev   Event
		want string
	}{
		{Event{Kind: EventPlaced, Worker: "127.0.0.1:7770", Devices: []int{0, 1}},
			"worker 127.0.0.1:7770 hosting devices [0 1]"},
		{Event{Kind: EventPlaced, Worker: "127.0.0.1:7772"},
			"worker 127.0.0.1:7772: no devices to place, skipping"},
		{Event{Kind: EventAbsorbed, Worker: "127.0.0.1:7771", Replayed: 3},
			"transport: worker 127.0.0.1:7771 control link absorbed a fault: reconnected, replaying 3 frame(s)"},
		{Event{Kind: EventLinkDown, Worker: "w1", Edges: [][2]int{{1, 2}}},
			"worker w1 reports peer link 1<->2 down (reconnect budget exhausted)"},
		{Event{Kind: EventSilent, Worker: "w0", Silence: 625 * time.Millisecond, Timeout: 500 * time.Millisecond},
			"worker w0 silent for 625ms (over 500ms), declaring it dead"},
		{Event{Kind: EventDropped, Worker: "w2", Devices: []int{3}},
			"worker w2 dropped after finishing devices [3]; no recovery needed"},
		{Event{Kind: EventDegrade, Edges: [][2]int{{1, 2}, {0, 3}}, Step: 4},
			"degrading peer link(s) [[1 2] [0 3]] to relay; ring resumes from step 4 on the remaining direct edges"},
		{Event{Kind: EventRestart, Cause: errors.New("cluster: worker w1: EOF"), Step: 3, Restart: 1, MaxRestarts: 2},
			"attempt lost a worker (cluster: worker w1: EOF); restarting every device from step 3 (restart 1 of 2)"},
		{Event{Kind: EventRepartition, Step: 2, Plan: shedLopsidedPlan, Eval: sched.ReplanEval{Current: 663_768, Proposed: 442_512}},
			"repartitioning after step 2: cluster: planned repartition after step 2 to dev0: B0 | dev1: B1 | dev2: B2-B3 " +
				"(measured bottleneck 663.768µs, predicted 442.512µs, 33% better)"},
		{Event{Kind: EventResumed, Ledger: "/var/pipebd", Records: 120, TornBytes: 17, Generations: 2, Topology: "hub",
			Plan: sched.Plan{Name: "tr"}, Step: 43},
			`ledger /var/pipebd: restored 120 records (17 torn bytes dropped, 2 plan generation(s)); hub restart under plan "tr" from step 43`},
	} {
		if got := c.ev.String(); got != c.want {
			t.Errorf("kind %d renders\n%q, want\n%q", c.ev.Kind, got, c.want)
		}
	}
}
