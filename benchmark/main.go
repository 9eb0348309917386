// Command benchmark is the repository's benchmark: the one harness every
// performance claim is measured with. It trains each workload from fresh
// weights over and over (a pass), checks every pass's output bit for
// bit, and reports calibrated throughput and cost. See README.md beside
// this file for the metrics, the workloads and how to compare two runs.
//
//	go run ./benchmark --workload conv_inproc --seed 1 --seconds 25 --trace 0
//
// prints the end-to-end metrics; --trace 1 runs traced passes beside
// untraced ones and prints the per-layer metrics instead. The last line
// of standard output is one JSON object with the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

type options struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	out       string
	traceOut  string
	quick     bool
	workDir   string
}

func main() {
	var o options
	names := flag.String("workload", "", "comma-separated workloads to run; empty runs all")
	flag.Int64Var(&o.seed, "seed", 1, "seeds model initialisation and data")
	flag.Float64Var(&o.seconds, "seconds", 25, "how long to measure")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 runs traced passes and prints per-layer metrics")
	flag.StringVar(&o.out, "out", "", "also write the full report, with every sample, to this file")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans as Chrome trace JSON to this file")
	flag.BoolVar(&o.quick, "quick", false, "two-step passes, for the package's own tests; the report is not comparable")
	flag.Parse()
	if *names != "" {
		o.workloads = strings.Split(*names, ",")
	}
	o.trace = *trace != 0
	// Everything the benchmark writes stays inside the checkout.
	o.workDir = ".bench_build"
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
}

// report is everything one invocation measured.
type report struct {
	Host       host             `json:"host"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Trace      bool             `json:"trace"`
	Comparable bool             `json:"comparable"` // false under -quick
	Workloads  []workloadReport `json:"workloads"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadReport struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// SplitHalf is, per end-to-end metric, its value over the first and
	// over the second half of the passes. A gap beyond the metric's bound
	// means the host moved during the run: the metric is listed Unstable.
	SplitHalf map[string][2]float64 `json:"split_half"`
	Unstable  []string              `json:"unstable,omitempty"`
	Samples   []sample              `json:"samples"`
}

// host is the fingerprint two reports must share to be compared.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// run measures the selected workloads. Each round runs one pass of every
// workload, in an order rotated by round, so a disturbance that lasts a
// few rounds touches a share of every workload's samples instead of all
// of one's.
func run(o options) (*report, error) {
	all := workloads()
	var sel []*harness
	for i := range all {
		w := &all[i]
		if len(o.workloads) > 0 && !slices.Contains(o.workloads, w.name) {
			continue
		}
		w.seed = o.seed
		if o.quick {
			w.steps = 2
		}
		sel = append(sel, &harness{w: w, o: o})
	}
	if len(sel) == 0 || (len(o.workloads) > 0 && len(sel) != len(o.workloads)) {
		return nil, fmt.Errorf("unknown workload in %q (have %s)", o.workloads, workloadNames(all))
	}
	for _, h := range sel {
		if err := h.prepare(); err != nil {
			return nil, err
		}
	}
	// The untimed spin that opens the first bracket also warms the loop.
	last := spin(o.spinReps())
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for round := 0; ; round++ {
		if round >= o.minRounds() && time.Now().After(deadline) {
			break
		}
		stop := false
		for i := range sel {
			h := sel[(i+round)%len(sel)]
			last = h.round(round, last)
			stop = stop || h.timedOut
		}
		if stop {
			break
		}
	}
	rep := &report{Host: fingerprint(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Comparable: !o.quick}
	for _, h := range sel {
		rep.Workloads = append(rep.Workloads, h.report())
	}
	if o.out != "" {
		blob, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.out, blob, 0o644); err != nil {
			return nil, err
		}
	}
	if o.trace && o.traceOut != "" {
		if err := writeChromeTrace(o.traceOut, sel); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// spinReps shortens the calibration spin under -quick, whose report is
// not comparable anyway.
func (o options) spinReps() int {
	if o.quick {
		return spinReps / 20
	}
	return spinReps
}

// minRounds keeps a median meaningful when --seconds is tiny.
func (o options) minRounds() int {
	if o.quick {
		return 2
	}
	return 5
}

func workloadNames(ws []workload) string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// print writes every metric by name with its unit, then the result as
// the last line: for one workload an object with exactly the keys
// correct, attempted, failed and metrics; for several, an object of
// those keyed by workload name.
func (r *report) print(f io.Writer) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	results := map[string]any{}
	for _, w := range r.Workloads {
		fmt.Fprintf(f, "# %s: %d passes, %d failed", w.Name, w.Attempted, w.Failed)
		if len(w.Unstable) > 0 {
			fmt.Fprintf(f, "; unstable (split-half gap over bound): %s", strings.Join(w.Unstable, ", "))
		}
		fmt.Fprintln(f)
		for _, msg := range w.Failures {
			fmt.Fprintf(f, "#   failure: %s\n", msg)
		}
		for _, d := range defs {
			m := w.Metrics[d.name]
			fmt.Fprintf(f, "%-18s %-36s %14.6g %s\n", w.Name, d.name, m.Value, m.Unit)
		}
		results[w.Name] = map[string]any{"correct": w.Correct, "attempted": w.Attempted,
			"failed": w.Failed, "metrics": w.Metrics}
	}
	var last any = results
	if len(r.Workloads) == 1 {
		last = results[r.Workloads[0].Name]
	}
	blob, err := json.Marshal(last)
	if err != nil {
		panic(err) // maps of strings, numbers and bools always encode
	}
	fmt.Fprintln(f, string(blob))
}
