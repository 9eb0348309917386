// Command pipebd-worker hosts Pipe-BD pipeline devices for a remote
// coordinator: it listens for a coordinator connection (pipebd -cluster),
// receives a plan assignment with a model spec and parameter snapshot,
// runs the assigned devices' training loops, and streams activations,
// gradients, and losses back over the length-prefixed TCP wire protocol.
//
// Usage:
//
//	pipebd-worker -listen 127.0.0.1:7710                # serve forever
//	pipebd-worker -listen 127.0.0.1:7710 -sessions 1    # one session, then exit
//	pipebd-worker -listen 127.0.0.1:0                   # any free port
//	pipebd-worker -listen 127.0.0.1:7710 -sessions 1 -rejoin
//	  # fault-tolerant: a killed or superseded session does not consume
//	  # the budget, so the worker stays up for the coordinator's restart
//	  # (resume) session and exits only after serving one session to
//	  # completion. The same flag covers a coordinator crash: a
//	  # coordinator restarted from its ledger (pipebd -resume) re-places
//	  # every device exactly as a live restart does
//
// The bound address is printed as "pipebd-worker: listening on ADDR" so
// scripts can scrape the port when listening on :0.
//
// Observability: -trace-dir DIR records every session's per-step spans
// locally — whether or not the coordinator asked for tracing — and dumps
// each completed session as a Chrome trace JSON file in DIR. -net-stats
// prints the worker's direct peer-link byte totals when it exits (in ring
// topology that is where the activations and all-reduces actually flow;
// under the hub every edge is relayed and they stay zero).
// -debug-addr HOST:PORT serves net/http/pprof plus a plain-text /metrics
// page (sessions, device steps, per-category busy nanoseconds, peer
// transport totals) for the worker's lifetime.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/obs"
	"pipebd/internal/tensor"
)

func main() {
	w, err := newWorker(os.Args[1:], os.Stdout)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // usage already printed to stdout
		}
		fmt.Fprintf(os.Stderr, "pipebd-worker: %v\n", err)
		os.Exit(2)
	}
	err = w.Serve()
	w.finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipebd-worker: %v\n", err)
		os.Exit(1)
	}
}

// workerApp is the worker plus the observability teardown main runs after
// Serve returns: print the peer-meter totals, stop the debug listener.
type workerApp struct {
	*cluster.Worker
	finish func()
}

// newWorker parses flags, applies the backend choice, binds the listener,
// and returns the ready-to-Serve worker. Split from main for the smoke
// tests.
func newWorker(args []string, stdout io.Writer) (*workerApp, error) {
	fs := flag.NewFlagSet("pipebd-worker", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	listen := fs.String("listen", "127.0.0.1:7710", "TCP address to listen on (host:port; :0 picks a free port)")
	sessions := fs.Int("sessions", 0, "coordinator sessions to serve before exiting (0: forever)")
	rejoin := fs.Bool("rejoin", false, "only count successful sessions toward -sessions, so the worker survives dropped sessions and re-joins the coordinator's recovery")
	slowdown := fs.Int("slowdown", 1, "throttle this worker's compute by the given factor (sleep (N-1)x each kernel's duration) — a bit-identical straggler for exercising -repartition; 1 disables")
	quiet := fs.Bool("quiet", false, "suppress per-session progress output")
	traceDir := fs.String("trace-dir", "", "trace every session's spans locally and dump each completed session as a Chrome trace JSON file in this directory")
	netStats := fs.Bool("net-stats", false, "print the peer data-plane byte/frame totals when the worker exits")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and a plain-text /metrics page on this address for the worker's lifetime")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stdout, "Usage of %s:\n", fs.Name())
			fs.SetOutput(stdout)
			fs.PrintDefaults()
		}
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *sessions < 0 {
		return nil, fmt.Errorf("-sessions must be >= 0, got %d", *sessions)
	}

	lis, err := transport.TCP{}.Listen(*listen)
	if err != nil {
		return nil, err
	}
	counters := obs.NewMetrics()
	// Sessions with direct peer edges (pipebd -topology ring) need the
	// worker to dial its pipeline peers; under the hub every edge is
	// relayed and nothing dials. The meter wraps that dial network, so its
	// totals are exactly the direct peer links: activations forwarded
	// onward and all-reduce segments.
	var peerDial transport.Network = transport.TCP{}
	var peerMeter *transport.Meter
	if *netStats || *debugAddr != "" {
		peerMeter = transport.NewMeter(peerDial)
		peerDial = peerMeter
	}
	cfg := cluster.WorkerConfig{Sessions: *sessions, Rejoin: *rejoin, Dial: peerDial,
		TraceDir: *traceDir, Metrics: counters}
	if *slowdown < 1 {
		lis.Close()
		return nil, fmt.Errorf("-slowdown must be >= 1, got %d", *slowdown)
	}
	if *slowdown > 1 {
		// Throttling wraps the process default and overrides the backend
		// each session's Assign names: this worker models a uniformly
		// slower machine.
		cfg.Backend = tensor.NewThrottled(tensor.Default(), *slowdown)
		fmt.Fprintf(stdout, "pipebd-worker: compute throttled %dx (straggler mode)\n", *slowdown)
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stdout, "pipebd-worker: "+format+"\n", args...)
		}
	}
	var debug *obs.DebugServer
	if *debugAddr != "" {
		debug, err = obs.StartDebugServer(*debugAddr, func(w io.Writer) {
			counters.Render(w)
			writeMeterTotals(w, "peer data plane", peerMeter.Totals())
		})
		if err != nil {
			lis.Close()
			return nil, err
		}
		fmt.Fprintf(stdout, "pipebd-worker: debug server on http://%s (/metrics, /debug/pprof/)\n", debug.Addr())
	}
	w := cluster.NewWorker(lis, cfg)
	fmt.Fprintf(stdout, "pipebd-worker: listening on %s\n", w.Addr())
	finish := func() {
		if *netStats && peerMeter != nil {
			writeMeterTotals(stdout, "pipebd-worker: net: peer data plane", peerMeter.Totals())
		}
		if debug != nil {
			debug.Close()
		}
	}
	return &workerApp{Worker: w, finish: finish}, nil
}

// writeMeterTotals prints one transport.Meter's totals on a single line.
func writeMeterTotals(w io.Writer, role string, t transport.Totals) {
	fmt.Fprintf(w, "%s: sent %d B / %d frame(s), received %d B / %d frame(s)\n",
		role, t.SentBytes, t.SentFrames, t.RecvBytes, t.RecvFrames)
}
