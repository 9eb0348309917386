package main

// worker.go is the worker mode: it listens for a coordinator connection
// (a cluster or resume coordinator), receives a plan assignment with a
// model spec and parameter snapshot, runs the assigned devices' training
// loops, and streams activations, gradients and losses over the
// length-prefixed TCP wire protocol.
//
//	pipebd worker -listen 127.0.0.1:7710                # serve forever
//	pipebd worker -listen 127.0.0.1:7710 -sessions 1    # one session, then exit
//	pipebd worker -listen 127.0.0.1:0                   # any free port
//	pipebd worker -listen 127.0.0.1:7710 -sessions 1 -rejoin
//
// With -rejoin a killed or superseded session does not consume the
// -sessions budget, so the worker stays up for the coordinator's restart
// session — a live restart and a resumed coordinator place devices the
// same way — and exits only after serving its sessions to completion.
// The bound address is printed as "pipebd worker: listening on ADDR" so
// scripts can scrape the port when listening on :0.
//
// Observability: -trace-dir DIR records every session's per-step spans
// locally, whether or not the coordinator asked for tracing, and dumps
// each completed session as a Chrome trace JSON file in DIR. -net-stats
// prints the worker's direct peer-link totals when it exits (under ring
// topology that is where activations and all-reduces flow; under the hub
// every edge is relayed and they stay zero). -debug-addr serves pprof and
// a /metrics page (sessions, device steps, per-category busy
// nanoseconds, peer transport totals) for the worker's lifetime.

import (
	"flag"
	"fmt"
	"io"

	"pipebd/internal/cluster"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/obs"
	"pipebd/internal/tensor"
)

// workerOptions are the worker mode's flags.
type workerOptions struct {
	listen              string
	sessions, slowdown  int
	rejoin, quiet       bool
	traceDir, debugAddr string
	netStats            bool
}

func (o *workerOptions) flags(fs *flag.FlagSet) {
	fs.StringVar(&o.listen, "listen", "127.0.0.1:7710", "TCP address to listen on (host:port; :0 picks a free port)")
	fs.IntVar(&o.sessions, "sessions", 0, "coordinator sessions to serve before exiting (0: forever)")
	fs.BoolVar(&o.rejoin, "rejoin", false, "only count successful sessions toward -sessions, so the worker survives dropped sessions and re-joins the coordinator's recovery")
	fs.IntVar(&o.slowdown, "slowdown", 1, "slow this worker's backend kernels (GEMMs, convolutions, elementwise) by the given factor, waiting (N-1)x each one's duration; depthwise, BatchNorm, ReLU, MSE and row kernels run at full speed, so the device slows by less — a bit-identical straggler for exercising -repartition; 1 disables")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-session progress output")
	fs.StringVar(&o.traceDir, "trace-dir", "", "trace every session's spans locally and dump each completed session as a Chrome trace JSON file in this directory")
	fs.BoolVar(&o.netStats, "net-stats", false, "print the peer data-plane byte/frame totals when the worker exits")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof and a plain-text /metrics page on this address for the worker's lifetime")
}

func (o *workerOptions) run(_ []string, stdout io.Writer) error {
	w, finish, err := o.start(stdout)
	if err != nil {
		return err
	}
	err = w.Serve()
	finish()
	return err
}

// start binds the listener and returns the worker, ready to Serve, and
// the observability teardown to run once Serve returns: print the
// peer-meter totals, stop the debug listener.
func (o *workerOptions) start(stdout io.Writer) (*cluster.Worker, func(), error) {
	const prefix = "pipebd worker: "
	if o.sessions < 0 {
		return nil, nil, fmt.Errorf("-sessions must be >= 0, got %d", o.sessions)
	}
	if o.slowdown < 1 {
		return nil, nil, fmt.Errorf("-slowdown must be >= 1, got %d", o.slowdown)
	}
	lis, err := transport.TCP{}.Listen(o.listen)
	if err != nil {
		return nil, nil, err
	}
	counters := obs.NewMetrics()
	// Sessions with direct peer edges (-topology ring) need the worker to
	// dial its pipeline peers; under the hub every edge is relayed and
	// nothing dials. The meter wraps that dial network, so its totals are
	// exactly the direct peer links: activations forwarded onward and
	// all-reduce segments.
	dial, finish, err := observe(stdout, prefix, transport.TCP{}, "peer data plane", o.netStats, o.debugAddr, counters)
	if err != nil {
		lis.Close()
		return nil, nil, err
	}
	cfg := cluster.WorkerConfig{Sessions: o.sessions, Rejoin: o.rejoin, Dial: dial,
		TraceDir: o.traceDir, Metrics: counters}
	if o.slowdown > 1 {
		// Throttling wraps the process default and overrides the backend
		// each session's Assign names: this worker models a uniformly
		// slower machine.
		cfg.Backend = tensor.NewThrottled(tensor.Default(), o.slowdown)
		fmt.Fprintf(stdout, prefix+"compute throttled %dx (straggler mode)\n", o.slowdown)
	}
	if !o.quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stdout, prefix+format+"\n", args...)
		}
	}
	w := cluster.NewWorker(lis, cfg)
	fmt.Fprintf(stdout, prefix+"listening on %s\n", w.Addr())
	return w, finish, nil
}
