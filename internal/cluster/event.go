package cluster

import (
	"fmt"
	"time"

	"pipebd/internal/sched"
)

// EventKind names a coordinator decision; each kind's comment lists the
// Event fields it sets.
type EventKind uint8

const (
	EventPlaced      EventKind = iota // Worker hosts Devices; with none it is skipped
	EventAbsorbed                     // Worker's control link reconnected, Replayed frames to replay
	EventLinkDown                     // Worker reports peer link Edges[0] down for good
	EventSilent                       // Worker was silent for Silence, over Timeout: it is dead
	EventDropped                      // Worker was lost after its Devices finished: nothing restarts
	EventDegrade                      // peer links Edges are relayed; the run resumes at Step
	EventRestart                      // Cause lost a worker: every device restarts at Step, restart Restart of MaxRestarts
	EventRepartition                  // the run is cut after Step onto Plan, as Eval predicts
	EventResumed                      // Ledger's Records replayed: a Topology run resumes under Plan at Step
)

// Event is one coordinator decision as a value. Config.OnEvent receives
// each, and String renders the line pipebd prints for it.
type Event struct {
	Kind                           EventKind
	Worker                         string // the worker's address
	Devices                        []int
	Edges                          [][2]int
	Step                           int // the step the run resumes at; a repartition's cut
	Silence, Timeout               time.Duration
	Cause                          error
	Restart, MaxRestarts, Replayed int
	Plan                           sched.Plan
	Eval                           sched.ReplanEval
	// A resume's ledger directory and the run's topology, and the ledger's
	// records, the torn bytes dropped off its log and its plan generations.
	Ledger, Topology                string
	Records, TornBytes, Generations int
}

func (ev Event) String() string {
	switch ev.Kind {
	case EventPlaced:
		if len(ev.Devices) == 0 {
			return fmt.Sprintf("worker %s: no devices to place, skipping", ev.Worker)
		}
		return fmt.Sprintf("worker %s hosting devices %v", ev.Worker, ev.Devices)
	case EventAbsorbed:
		return fmt.Sprintf("transport: worker %s control link absorbed a fault: reconnected, replaying %d frame(s)", ev.Worker, ev.Replayed)
	case EventLinkDown:
		return fmt.Sprintf("worker %s reports peer link %d<->%d down (reconnect budget exhausted)", ev.Worker, ev.Edges[0][0], ev.Edges[0][1])
	case EventSilent:
		return fmt.Sprintf("worker %s silent for %v (over %v), declaring it dead", ev.Worker, ev.Silence, ev.Timeout)
	case EventDropped:
		return fmt.Sprintf("worker %s dropped after finishing devices %v; no recovery needed", ev.Worker, ev.Devices)
	case EventDegrade:
		return fmt.Sprintf("degrading peer link(s) %v to relay; ring resumes from step %d on the remaining direct edges", ev.Edges, ev.Step)
	case EventRestart:
		return fmt.Sprintf("attempt lost a worker (%v); restarting every device from step %d (restart %d of %d)",
			ev.Cause, ev.Step, ev.Restart, ev.MaxRestarts)
	case EventRepartition:
		return fmt.Sprintf("repartitioning after step %d: cluster: planned repartition after step %[1]d to %s (measured bottleneck %v, predicted %v, %.0f%% better)",
			ev.Step, ev.Plan.Describe(), time.Duration(ev.Eval.Current), time.Duration(ev.Eval.Proposed), 100*ev.Eval.Improvement())
	case EventResumed:
		return fmt.Sprintf("ledger %s: restored %d records (%d torn bytes dropped, %d plan generation(s)); %s restart under plan %q from step %d",
			ev.Ledger, ev.Records, ev.TornBytes, ev.Generations, ev.Topology, ev.Plan.Name, ev.Step)
	}
	return fmt.Sprintf("cluster event %d", ev.Kind)
}

// eventCounters names the Config.Metrics counter each kind adds one to.
var eventCounters = map[EventKind]string{EventAbsorbed: "link_faults_absorbed", EventLinkDown: "peer_links_down",
	EventDegrade: "degrades", EventRestart: "recoveries", EventRepartition: "repartitions"}

// emit is how a coordinator reports a decision: it adds the decision to
// its counter in Config.Metrics — an absorb's replayed frames to
// "link_frames_replayed" too — and hands it to Config.OnEvent.
func (c *Coordinator) emit(ev Event) {
	if name, ok := eventCounters[ev.Kind]; ok {
		c.cfg.Metrics.Add(name, 1)
	}
	if ev.Kind == EventAbsorbed {
		c.cfg.Metrics.Add("link_frames_replayed", int64(ev.Replayed))
	}
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}
