package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipebd/internal/cluster/ledger"
	"pipebd/internal/cluster/transport"
	"pipebd/internal/cluster/wire"
	"pipebd/internal/dataset"
	"pipebd/internal/distill"
	"pipebd/internal/engine"
	"pipebd/internal/obs"
	"pipebd/internal/sched"
	"pipebd/internal/testutil"
)

// runSpec is what a cluster run and its in-process reference are both
// built from; every suite of the package builds its runs from one.
type runSpec struct {
	model        string // "tiny" (also the zero value) or "transformer"
	plan         sched.Plan
	dpu          bool
	steps, batch int
	drift        bool // the seed weights are moved off the spec's initialization
}

func (s runSpec) modelSpec() wire.ModelSpec {
	if s.model == "transformer" {
		return TransformerSpec(distill.DefaultTransformerConfig())
	}
	return TinySpec(distill.DefaultTinyConfig())
}

// workbench builds the run's workbench: what the coordinator's seed
// snapshot carries, so a drifted one must train as it is.
func (s runSpec) workbench() *distill.Workbench {
	w, err := BuildWorkbench(s.modelSpec())
	if err != nil {
		panic(err)
	}
	for b := 0; s.drift && b < w.NumBlocks(); b++ {
		for _, prm := range w.StudentParams(b) {
			for i := range prm.Value.Data() {
				prm.Value.Data()[i] += 0.01
			}
		}
	}
	return w
}

// data is the run's recipe, Config.Data.
func (s runSpec) data() wire.DataSpec {
	if s.model == "transformer" {
		cfg := distill.DefaultTransformerConfig()
		return wire.DataSpec{Seed: 7, N: s.steps * s.batch, Classes: cfg.Classes, Batch: s.batch,
			Kind: "tokens", L: cfg.SeqLen, Vocab: cfg.Vocab}
	}
	cfg := distill.DefaultTinyConfig()
	return wire.DataSpec{Seed: 7, N: s.steps * s.batch, C: 3, H: cfg.Height, W: cfg.Width, Classes: 4, Batch: s.batch}
}

// batches evaluates the recipe.
func (s runSpec) batches() []dataset.Batch {
	batches, err := s.data().Batches()
	if err != nil {
		panic(err)
	}
	return batches
}

// config is the run's cluster Config; a suite adds the rest.
func (s runSpec) config() Config {
	return Config{Plan: s.plan, DPU: s.dpu, LR: 0.05, Momentum: 0.9,
		Spec: s.modelSpec(), Data: s.data(), JoinTimeout: 10 * time.Second}
}

// run trains a fresh workbench on the workers at addrs under cfg.
func (s runSpec) run(net transport.Network, addrs []string, cfg Config) (engine.Result, *distill.Workbench, error) {
	w := s.workbench()
	res, err := Run(net, addrs, w, s.batches(), cfg)
	return res, w, err
}

// trajectory is a finished run's losses and trained workbench.
type trajectory struct {
	res engine.Result
	w   *distill.Workbench
}

// reference is engine.Run of sched.TeacherRelaying(plan, dpu): the bits
// every cluster run of s must reproduce.
func (s runSpec) reference() trajectory {
	w := s.workbench()
	res := engine.Run(w, s.batches(), sched.TeacherRelaying(s.plan, s.dpu), engine.Config{LR: 0.05, Momentum: 0.9})
	return trajectory{res, w}
}

// diff names the first loss or student weight in which got departs from
// want; nil means they are bit-identical.
func (want trajectory) diff(got engine.Result, w *distill.Workbench) error {
	if !slices.EqualFunc(got.Loss, want.res.Loss, slices.Equal) {
		return fmt.Errorf("losses %v, want %v", got.Loss, want.res.Loss)
	}
	for b := 0; b < want.w.NumBlocks(); b++ {
		pw, pg := want.w.StudentParams(b), w.StudentParams(b)
		for i := range pw {
			if !pg[i].Value.Equal(pw[i].Value) {
				return fmt.Errorf("block %d student param %d (%s) differs", b, i, pw[i].Name)
			}
		}
	}
	return nil
}

// check fails t unless res and w are the reference's bits.
func (s runSpec) check(t *testing.T, res engine.Result, w *distill.Workbench) {
	t.Helper()
	if err := s.reference().diff(res, w); err != nil {
		t.Fatalf("cluster run departs from engine.Run: %v", err)
	}
}

// startWorkers brings up n worker servers on the network and returns
// their addresses. Cleanup closes them and waits for Serve to return.
func startWorkers(t *testing.T, net transport.Network, n int, cfg WorkerConfig) []string {
	t.Helper()
	cfgs := make([]WorkerConfig, n)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return startWorkersMixed(t, net, cfgs)
}

// startWorkersMixed is startWorkers with one config per worker.
func startWorkersMixed(t *testing.T, net transport.Network, cfgs []WorkerConfig) []string {
	t.Helper()
	addrs := make([]string, len(cfgs))
	workers := make([]*Worker, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		addr := ""
		if _, ok := net.(transport.TCP); ok {
			addr = "127.0.0.1:0"
		}
		lis, err := net.Listen(addr)
		if err != nil {
			t.Fatalf("worker %d listen: %v", i, err)
		}
		w := NewWorker(lis, cfg)
		addrs[i] = w.Addr()
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Serve(); err != nil {
				t.Errorf("worker serve: %v", err)
			}
		}()
	}
	// Close every worker before waiting: a still-serving worker must not
	// deadlock the wait for an already-closed sibling.
	t.Cleanup(func() {
		for _, w := range workers {
			w.Close()
		}
		wg.Wait()
	})
	return addrs
}

// serveWorker starts one worker on net and returns it and the channel
// its Serve result arrives on; the caller waits for that result.
func serveWorker(t *testing.T, net transport.Network, cfg WorkerConfig) (*Worker, <-chan error) {
	t.Helper()
	lis, err := net.Listen("")
	if err != nil {
		t.Fatalf("worker listen: %v", err)
	}
	w := NewWorker(lis, cfg)
	served := make(chan error, 1)
	go func() { served <- w.Serve() }()
	return w, served
}

// leakCheck asserts, after the test's other cleanups, that no goroutine
// the test started is left.
func leakCheck(t *testing.T) {
	t.Helper()
	testutil.LeakCheck(t)
}

// captureLog returns a concurrency-safe Logf and a reader of its lines.
func captureLog() (func(string, ...any), func() string) {
	var mu sync.Mutex
	var b strings.Builder
	logf := func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(&b, format+"\n", args...)
		mu.Unlock()
	}
	read := func() string {
		mu.Lock()
		defer mu.Unlock()
		return b.String()
	}
	return logf, read
}

// eventLog collects a coordinator's decisions; its add is an OnEvent,
// safe for concurrent use.
type eventLog struct {
	mu  sync.Mutex
	evs []Event
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// of returns the events of kind, in the order they came.
func (l *eventLog) of(kind EventKind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, ev := range l.evs {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// String renders every event as the line pipebd prints, for a failure
// message.
func (l *eventLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var b strings.Builder
	for _, ev := range l.evs {
		fmt.Fprintln(&b, ev)
	}
	return b.String()
}

func g(devs, blocks []int) sched.Group { return sched.Group{Devices: devs, Blocks: blocks} }

func plan(name string, groups ...sched.Group) sched.Plan {
	return sched.Plan{Name: name, Groups: groups}
}

// hybridPlan is an AHD-shaped distribution: the first two devices train
// blocks 0-1 data-parallel, the third trains blocks 2-3 alone.
func hybridPlan() sched.Plan {
	return plan("hybrid", g([]int{0, 1}, []int{0, 1}), g([]int{2}, []int{2, 3}))
}

// trPlan is teacher relaying over two devices, two blocks each.
func trPlan() sched.Plan {
	return plan("tr-2dev", g([]int{0}, []int{0, 1}), g([]int{1}, []int{2, 3}))
}

// recvFault is a one-shot fault on the first frame of kind and step any
// connection of its network receives.
func recvFault(kind wire.Kind, step int32, act transport.Action) transport.Fault {
	return transport.Fault{Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpRecv,
		Kind: kind, Step: step, Count: 1}, Action: act}
}

// allFired fails t unless every fault scheduled on each chaos network
// fired: a mis-aimed fault would turn a fault test into a fault-free run.
func allFired(t *testing.T, nets ...*transport.Chaos) {
	t.Helper()
	for _, n := range nets {
		if unfired := n.Unfired(); len(unfired) > 0 {
			t.Fatalf("scheduled faults never fired: %v", unfired)
		}
	}
}

const (
	fastRetry    = 2 * time.Second  // a RetryBudget well above any in-process reconnect
	drawDeadline = 30 * time.Second // a draw still running then panics, naming its seed
)

// FuzzClusterRun checks the cluster's one invariant — every run trains
// exactly the in-process engine's bits — on the runs a uint64 seed draws
// (drawRun): model and seed weights, teacher-relaying plan, DPU,
// topology, transport, workers, snapshot policy, durability, and
// frame-triggered transport.Chaos faults: worker kills inside or past the
// restart budget, control- or peer-link flaps under a retry budget, a
// truncated frame, or a coordinator crash resumed from its ledger
// (compacted or not, crashed again or not).
//
// A run that finishes must match engine.Run of
// sched.TeacherRelaying(plan, dpu) loss for loss and weight for weight; a
// run whose budget runs out with no ledger must fail with an error
// wrapping transport.ErrChaos (so must a crashing durable one, on the
// ring too, where its lost link fails other sessions: the coordinator
// reads a killed connection's fault before the worker at its other end
// sees the break). Every fault must fire, each
// generation must spend one restart per kill within its budget, a flap
// none, and a durable run's ledger must hold what its snapshot policy
// ships and nothing a resume replayed from inside its cut. A failure
// prints its seed and draw, and
//
//	go test -run 'FuzzClusterRun/<corpus file>' ./internal/cluster/
//
// replays a committed seed (corpus_cases_test.go maps the hand-written
// cases they replaced onto them).
func FuzzClusterRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64) {
		if name, ok := passed.Load(seed); ok {
			t.Logf("passed as %s", name)
			return
		}
		drawRun(seed).play(t)
	})
}

// clusterDraw is one decoded seed: a run and the faults it meets.
type clusterDraw struct {
	runSpec
	seed     uint64
	topology string
	tcp      bool
	workers  int
	interval int          // Config.Snapshot.Interval; 0 where fault tolerance is off
	restarts int          // Config.MaxRestarts
	retry    bool         // a RetryBudget: links absorb flaps
	durable  bool         // a LedgerDir
	gens     []generation // the Run, then each ResumeRun of its ledger
}

// generation is one coordinator's life in a draw.
type generation struct {
	compact  bool // ledger.Compact runs first (resumes only)
	restarts int  // ResumeConfig.MaxRestarts (resumes only)
	budget   int  // the restarts the generation may spend
	faults   []drawnFault
	crash    bool // its kills exhaust its budget: it fails
}

// drawnFault is a scheduled fault and the network it is injected on.
type drawnFault struct {
	transport.Fault
	peer     bool // the workers' dial network, not the coordinator's
	relative bool // Step counts from the generation's first step (faultsOn)
}

func (f drawnFault) String() string {
	s := map[bool]string{false: "control ", true: "peer "}[f.peer] + f.Fault.String()
	if f.relative {
		s = strings.Replace(s, fmt.Sprintf("step %d", f.Step), fmt.Sprintf("step start+%d", f.Step), 1)
	}
	return s
}

// count is how many of the generation's faults do act (on peer links, if
// peer).
func (gen generation) count(act transport.Action, peer bool) int {
	n := 0
	for _, f := range gen.faults {
		if f.Action == act && (!peer || f.peer) {
			n++
		}
	}
	return n
}

// recoveries is the restarts the generation spends: one per kill or
// truncation, but the one a crash does not survive.
func (gen generation) recoveries() int {
	n := gen.count(transport.ActKill, false) + gen.count(transport.ActTruncate, false)
	if gen.crash {
		n--
	}
	return n
}

// controlFlaps counts the generation's flaps of control links.
func (gen generation) controlFlaps() int {
	return gen.count(transport.ActFlap, false) - gen.count(transport.ActFlap, true)
}

// drawRun decodes a seed. Every seed decodes to a valid draw, so the
// fuzzer may mutate it freely.
func drawRun(seed uint64) clusterDraw {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	d := clusterDraw{seed: seed, topology: "hub"}
	d.drift = seed&1 == 1
	d.model = "tiny"
	if r.IntN(5) == 0 {
		d.model = "transformer"
	}
	d.batch = []int{4, 6, 8, 12}[r.IntN(4)]
	d.steps = 3 + r.IntN(4)
	d.plan = drawPlan(r, d.batch)
	d.dpu = r.IntN(2) == 0
	if r.IntN(2) == 0 {
		d.topology = "ring"
	}
	d.tcp = r.IntN(5) == 0
	d.workers = 1 + r.IntN(4)
	// A run without fault tolerance ships no snapshots and drops it.
	d.interval = []int{1, 1, 2, 3, 2 * d.steps}[r.IntN(5)]
	switch f := r.IntN(20); {
	case f < 8:
		d.drawClean(r)
	case f < 10 && d.topology == "hub" && d.plan.NumDevices() > 1:
		d.drawTruncate(r)
	case f < 14:
		d.drawKills(r)
	default:
		d.drawCrash(r)
	}
	if d.restarts == 0 && !d.durable && !(d.retry && d.topology == "ring") {
		d.interval = 0
	}
	return d
}

// drawPlan draws a TR plan over four blocks: each block boundary splits
// groups with even odds (one to four groups, IR among them), and each
// group is unsplit or split two- to four-way, dividing the batch.
func drawPlan(r *rand.Rand, batch int) sched.Plan {
	var widths []int
	for k := 2; k <= 4; k++ {
		if batch%k == 0 {
			widths = append(widths, k)
		}
	}
	bounds := []int{0}
	for b := 1; b < 4; b++ {
		if r.IntN(2) == 0 {
			bounds = append(bounds, b)
		}
	}
	bounds = append(bounds, 4)
	p := sched.Plan{Name: "drawn"}
	dev := 0
	for i := 0; i+1 < len(bounds); i++ {
		k := 1
		if r.IntN(2) == 0 {
			k = widths[r.IntN(len(widths))]
		}
		var grp sched.Group
		for ; k > 0; k-- {
			grp.Devices = append(grp.Devices, dev)
			dev++
		}
		for b := bounds[i]; b < bounds[i+1]; b++ {
			grp.Blocks = append(grp.Blocks, b)
		}
		p.Groups = append(p.Groups, grp)
	}
	return p
}

// drawClean draws a run that loses no worker, maybe flapping under a
// retry budget, maybe durable and then maybe resumed once finished.
func (d *clusterDraw) drawClean(r *rand.Rand) {
	gen := generation{}
	d.retry = r.IntN(2) == 0
	if d.retry {
		steps := r.Perm(d.steps)
		for _, s := range steps[:min(r.IntN(3), d.steps)] {
			gen.faults = append(gen.faults, d.flap(r, s))
		}
	}
	d.durable = r.IntN(2) == 0
	d.gens = []generation{gen}
	if d.durable && r.IntN(2) == 0 {
		resume := generation{compact: r.IntN(2) == 0}
		// Only the steps past the finished run's last snapshot are replayed.
		if k := d.interval; d.retry && d.steps%k != 0 && r.IntN(2) == 0 {
			resume.faults = append(resume.faults, d.flap(r, d.steps-1-r.IntN(d.steps%k)))
		}
		d.gens = append(d.gens, resume)
	}
}

// drawTruncate draws a hub run whose coordinator cuts one relayed frame
// in half, failing the receiving session.
func (d *clusterDraw) drawTruncate(r *rand.Rand) {
	d.restarts = 1 + r.IntN(2)
	d.durable = r.IntN(3) == 0
	d.gens = []generation{{budget: d.restarts, faults: []drawnFault{{Fault: transport.Fault{
		Trigger: transport.Trigger{Conn: transport.AnyConn, Op: transport.OpSend, Kind: wire.KindRelay,
			Step: int32(r.IntN(d.steps)), Count: 1},
		Action: transport.ActTruncate}}}}}
}

// drawKills draws worker kills, one per attempt, within the restart
// budget or one past it — then with no ledger, and where the failure
// cannot cascade.
func (d *clusterDraw) drawKills(r *rand.Rand) {
	budget := r.IntN(3)
	exhausted := r.IntN(3) == 0 && !d.cascades()
	n := budget + 1
	if !exhausted {
		budget = max(budget, 1)
		n = 1 + r.IntN(budget)
	}
	d.restarts = budget
	d.durable = !exhausted && r.IntN(3) == 0
	gen := generation{budget: budget, crash: exhausted}
	gen.faults = d.kills(r, n, exhausted, true, true, false)
	d.gens = []generation{gen}
}

// drawCrash draws a durable run whose kills run past its budget — a
// coordinator crash — and one or two resumes (the first of two crashing
// too), each maybe after compaction and with a budget of its own.
func (d *clusterDraw) drawCrash(r *rand.Rand) {
	d.durable = true
	d.restarts = r.IntN(2)
	gen := generation{budget: d.restarts, crash: true}
	gen.faults = d.kills(r, d.restarts+1, true, true, false, false)
	d.gens = []generation{gen}
	resumes := 1 + r.IntN(3)/2
	for i := 1; i <= resumes; i++ {
		res := generation{compact: r.IntN(3) == 0, restarts: []int{0, -1, 1}[r.IntN(3)]}
		switch {
		case res.restarts == 0:
			res.budget = d.restarts // a resume inherits the manifest's budget
		case res.restarts > 0:
			res.budget = res.restarts
		}
		n := r.IntN(res.budget + 1)
		if i < resumes {
			res.crash, n = true, res.budget+1
		}
		res.faults = d.kills(r, n, res.crash, false, i == resumes, true)
		d.gens = append(d.gens, res)
	}
}

// kills draws n kills, kill k on attempt k at a step no earlier than the
// last kill's: a kill on a loss report leaves its step unaccounted, so
// the next attempt is sure to reach the next kill. A relayed frame may
// be queued behind a later loss report, so only the draw's final kill may
// fire on one. A ring Run's first kill may cut a peer link; a kill that
// exhausts the budget cuts a control link, surfacing the injected fault.
func (d *clusterDraw) kills(r *rand.Rand, n int, exhausting, peerOK, final, relative bool) []drawnFault {
	var out []drawnFault
	step := 0
	for k := 0; k < n; k++ {
		step += r.IntN(d.steps - step)
		kinds := d.peerKinds()
		if k == 0 && peerOK && len(kinds) > 0 && !(exhausting && n == 1) && r.IntN(2) == 0 {
			out = append(out, drawnFault{peer: true, Fault: recvFault(kinds[r.IntN(len(kinds))], int32(step), transport.ActKill)})
			continue
		}
		slot := r.IntN(d.sessions())
		kind := wire.KindLosses
		if final && k == n-1 && d.topology == "hub" && d.sendsRelays(slot) && r.IntN(3) == 0 {
			kind = wire.KindRelay
		}
		f := recvFault(kind, int32(step), transport.ActKill)
		f.Conn = k*d.sessions() + slot
		out = append(out, drawnFault{relative: relative, Fault: f})
	}
	return out
}

// flap draws a flap at step of a control link or a ring run's peer link.
func (d *clusterDraw) flap(r *rand.Rand, step int) drawnFault {
	if kinds := d.peerKinds(); len(kinds) > 0 && r.IntN(2) == 0 {
		f := recvFault(kinds[r.IntN(len(kinds))], int32(step), transport.ActFlap)
		return drawnFault{peer: true, Fault: f}
	}
	return d.controlFlap(r, step)
}

// controlFlap flaps the first control link a loss report of step (or,
// without DPU, maybe its barrier release) crosses.
func (d *clusterDraw) controlFlap(r *rand.Rand, step int) drawnFault {
	f := recvFault(wire.KindLosses, int32(step), transport.ActFlap)
	if !d.dpu && r.IntN(2) == 0 {
		f.Op, f.Kind = transport.OpSend, wire.KindStepGo
	}
	return drawnFault{Fault: f}
}

// peerKinds lists the frames every step of a ring run carries over peer
// links. Under the hub no peer link exists.
func (d *clusterDraw) peerKinds() []wire.Kind {
	if d.topology != "ring" {
		return nil
	}
	var kinds []wire.Kind
	if len(d.plan.Groups) > 1 {
		kinds = append(kinds, wire.KindOutput)
	}
	for _, grp := range d.plan.Groups {
		if grp.Split() > 1 {
			return append(kinds, wire.KindRingSegment)
		}
	}
	return kinds
}

// cascades reports whether a lost control link fails other sessions on
// its own: a cut-off ring session breaks its peer links. drawKills keeps
// such runs inside their budget, which fixes what the committed seeds
// draw; drawCrash runs them past it.
func (d *clusterDraw) cascades() bool {
	return d.topology == "ring" && d.sessions() > 1
}

// placement is the devices each session hosts (a worker left without
// devices hosts no session).
func (d *clusterDraw) placement() [][]int {
	var out [][]int
	for _, devs := range PlaceDevices(d.plan.NumDevices(), d.workers) {
		if len(devs) > 0 {
			out = append(out, devs)
		}
	}
	return out
}

// sessions is how many control links each attempt dials, in slot order:
// slot j of attempt k is connection k*sessions()+j.
func (d *clusterDraw) sessions() int { return len(d.placement()) }

// sendsRelays reports whether a hub session relays a frame every step:
// an activation, an all-reduce segment or, under DPU, an ack.
func (d *clusterDraw) sendsRelays(slot int) bool {
	for _, dev := range d.placement()[slot] {
		gi := d.plan.GroupOf(dev)
		if gi+1 < len(d.plan.Groups) || d.plan.Groups[gi].Split() > 1 || (d.dpu && gi > 0) {
			return true
		}
	}
	return false
}

// tailOnly reports whether a session hosts just an unsplit last group.
func (d *clusterDraw) tailOnly(slot int) bool {
	last := d.plan.Groups[len(d.plan.Groups)-1]
	devs := d.placement()[slot]
	return last.Split() == 1 && len(devs) == 1 && devs[0] == last.Devices[0]
}

func (d clusterDraw) String() string {
	s := fmt.Sprintf("seed %#x: %s, plan %s, batch %d, %d steps, DPU %v, %s, TCP %v, %d worker(s), "+
		"snapshot interval %d, MaxRestarts %d, RetryBudget %v, durable %v, drifted seed %v", d.seed, d.model,
		d.plan.Describe(), d.batch, d.steps, d.dpu, d.topology, d.tcp, d.workers, d.interval, d.restarts, d.retry,
		d.durable, d.drift)
	for i, gen := range d.gens {
		s += fmt.Sprintf("\n  generation %d (compacted first %v, ResumeConfig.MaxRestarts %d, fails %v): %v",
			i, gen.compact, gen.restarts, gen.crash, gen.faults)
	}
	return s
}

// play runs the draw and checks it. A draw still running (or tearing
// down) at drawDeadline panics with its seed, draw and every goroutine's
// stack. What links count on their own goroutines is checked once the
// cleanups have stopped every one of them.
func (d clusterDraw) play(t *testing.T) {
	hung := time.AfterFunc(drawDeadline, func() {
		stacks := make([]byte, 1<<20)
		stacks = stacks[:runtime.Stack(stacks, true)]
		panic(fmt.Sprintf("FuzzClusterRun: no result within %v\n%s\n\n%s", drawDeadline, d, stacks))
	})
	t.Cleanup(func() { hung.Stop() })
	workerMetrics := obs.NewMetrics()
	logs := make([]*eventLog, len(d.gens))
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if err := d.checkAbsorbed(workerMetrics, logs); err != nil {
			t.Errorf("%v\n%s", err, d)
		}
	})
	leakCheck(t)
	var inner transport.Network = transport.NewLoopback()
	if d.tcp {
		inner = transport.TCP{}
	}
	peer := &peerNet{}
	addrs := startWorkers(t, inner, d.workers, WorkerConfig{Rejoin: true, Dial: peer, Metrics: workerMetrics})
	dir := filepath.Join(t.TempDir(), "ledger")
	if err := d.run(inner, peer, addrs, dir, logs); err != nil {
		t.Fatalf("%v\n%s", err, d)
	}
}

// faultsOn lists generation i's faults on peer (or control) links, the
// generation starting at step start. A resume's kills count from start:
// its ledger holds every attempt's records, so its cut is known only at
// run time. A resume of a cut at the last step runs no step, so its kills
// fire on Done frames instead.
func (d *clusterDraw) faultsOn(i int, peer bool, start int) []transport.Fault {
	var out []transport.Fault
	for _, f := range d.gens[i].faults {
		if f.peer != peer {
			continue
		}
		if f.relative {
			if start < d.steps {
				f.Step = int32(min(start+int(f.Step), d.steps-1))
			} else {
				f.Kind, f.Step = wire.KindDone, transport.AnyStep
			}
		}
		out = append(out, f.Fault)
	}
	return out
}

// peerNet is the workers' dial network: the chaos network of the
// generation running, so a resume's peer faults meet only its frames.
type peerNet struct {
	atomic.Pointer[transport.Chaos]
}

func (n *peerNet) Listen(addr string) (transport.Listener, error) { return n.Load().Listen(addr) }
func (n *peerNet) Dial(addr string) (transport.Conn, error)       { return n.Load().Dial(addr) }

// run plays the draw's generations, each dialing through fresh chaos
// networks.
func (d *clusterDraw) run(inner transport.Network, peers *peerNet, addrs []string, dir string, logs []*eventLog) error {
	ref := d.reference()
	var before ledgerState
	for i, gen := range d.gens {
		events := &eventLog{}
		logs[i] = events
		fail := func(format string, args ...any) error {
			return fmt.Errorf("generation %d: %s\nevents:\n%v", i, fmt.Sprintf(format, args...), events)
		}
		start, err := 0, error(nil)
		if gen.compact {
			err = compactLedger(dir)
		}
		if i > 0 && err == nil {
			before, err = readLedger(dir)
			start = before.cut + 1
		}
		if err != nil {
			return fail("%v", err)
		}
		coord := transport.NewChaos(inner, d.faultsOn(i, false, start)...)
		peer := transport.NewChaos(inner, d.faultsOn(i, true, start)...)
		peers.Store(peer)
		var res engine.Result
		var w *distill.Workbench
		if i == 0 {
			cfg := d.config()
			cfg.Topology, cfg.MaxRestarts, cfg.Snapshot = d.topology, d.restarts, SnapshotPolicy{Interval: d.interval}
			if d.retry {
				cfg.RetryBudget = fastRetry
			}
			if d.durable {
				cfg.LedgerDir = dir
			}
			cfg.OnEvent = events.add
			res, w, err = d.runSpec.run(coord, addrs, cfg)
		} else {
			res, w, err = ResumeRun(coord, dir, ResumeConfig{JoinTimeout: 10 * time.Second,
				MaxRestarts: gen.restarts, OnEvent: events.add})
		}
		switch {
		case gen.crash && !errors.Is(err, transport.ErrChaos):
			return fail("got %v, want an error wrapping the injected fault", err)
		case !gen.crash && err != nil:
			return fail("%v", err)
		case !gen.crash:
			if err := ref.diff(res, w); err != nil {
				return fail("departs from engine.Run: %v", err)
			}
		}
		if unfired := append(coord.Unfired(), peer.Unfired()...); len(unfired) > 0 {
			return fail("faults never fired: %v", unfired)
		}
		restarts := events.of(EventRestart)
		if len(restarts) != gen.recoveries() {
			return fail("restarted %d time(s), want %d", len(restarts), gen.recoveries())
		}
		for k, ev := range restarts {
			if ev.Restart != k+1 || ev.MaxRestarts != gen.budget {
				return fail("restart %d counts itself restart %d of %d, want of %d", k+1, ev.Restart, ev.MaxRestarts, gen.budget)
			}
		}
		if n := len(events.of(EventDegrade)); n > 0 {
			return fail("degraded a peer link %d time(s)", n)
		}
		if d.durable {
			if err := d.checkLedger(dir, i, before); err != nil {
				return fail("%v", err)
			}
		}
	}
	return nil
}

// checkAbsorbed checks the flaps absorbed: each end of a link counts
// one, so the coordinator counts each control flap once and the workers
// each control flap once and each peer flap twice.
func (d *clusterDraw) checkAbsorbed(workers *obs.Metrics, logs []*eventLog) error {
	want := 0
	for i, gen := range d.gens {
		control, peer := gen.controlFlaps(), gen.count(transport.ActFlap, true)
		want += control + 2*peer
		if logs[i] == nil {
			continue
		}
		if n := len(logs[i].of(EventAbsorbed)); n != control {
			return fmt.Errorf("generation %d's coordinator absorbed %d link fault(s), want %d", i, n, control)
		}
	}
	if n := workers.Counter("link_faults_absorbed").Load(); n != int64(want) {
		return fmt.Errorf("the workers counted %d absorbed link fault(s), want %d", n, want)
	}
	return nil
}

// ledgerState is what a ledger holds: its cut (as a resume computes it),
// how often each (device, step) loss row was logged, and its snapshots.
type ledgerState struct {
	cut  int
	rows map[[2]int]int
	snap []*ledger.Record
}

// readLedger reads a ledger as ResumeRun does, releasing its lock.
func readLedger(dir string) (ledgerState, error) {
	led, man, rep, err := ledger.Open(dir)
	if err != nil {
		return ledgerState{}, err
	}
	led.Close()
	acct, err := ledger.NewAccount(&man.Assign)
	if err != nil {
		return ledgerState{}, err
	}
	st := ledgerState{rows: map[[2]int]int{}}
	var walk func(recs []*ledger.Record)
	walk = func(recs []*ledger.Record) {
		for _, rec := range recs {
			switch rec.Type {
			case ledger.TypeLosses:
				st.rows[[2]int{rec.Dev, rec.Step}]++
			case ledger.TypeDevSnapshot:
				st.snap = append(st.snap, rec)
			case ledger.TypeCheckpoint:
				walk(rec.Children)
			}
		}
	}
	walk(rep.Records)
	for i, rec := range rep.Records {
		if err := acct.Apply(rec); err != nil {
			return ledgerState{}, fmt.Errorf("record %d: %w", i, err)
		}
	}
	st.cut = acct.Cut()
	return st, nil
}

// compactLedger compacts a ledger into one checkpoint record.
func compactLedger(dir string) error {
	if err := ledger.Compact(dir); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	led, _, rep, err := ledger.Open(dir)
	if err != nil {
		return err
	}
	led.Close()
	if len(rep.Records) != 1 || rep.Records[0].Type != ledger.TypeCheckpoint {
		return fmt.Errorf("the compacted log holds %d records, want one checkpoint", len(rep.Records))
	}
	return nil
}

// checkLedger checks a durable run's ledger after generation i:
//   - only each group's rank 0 snapshots, at the steps the interval
//     covers — exactly once each, and every loss row once, while no
//     attempt was superseded;
//   - a fresh run's first kill, cutting off a hub session that hosts just
//     an unsplit last group, leaves the cut at the newest covered step
//     short of the killed one (upstream losses and snapshots precede the
//     activations it waits on): at interval 1, no loss row of a step
//     before the killed one is logged twice;
//   - a resume logs no loss row of a step inside the cut it started from.
func (d *clusterDraw) checkLedger(dir string, i int, before ledgerState) error {
	st, err := readLedger(dir)
	if err != nil {
		return err
	}
	k := max(d.interval, 1)
	for _, rec := range st.snap {
		gi := d.plan.GroupOf(rec.Dev)
		if d.plan.Groups[gi].Devices[0] != rec.Dev || (rec.Step+1)%k != 0 {
			return fmt.Errorf("device %d logged a snapshot of step %d: only rank 0 snapshots, every %d step(s)",
				rec.Dev, rec.Step, k)
		}
	}
	gen := d.gens[i]
	if i == 0 && len(gen.faults) == gen.count(transport.ActFlap, false) {
		if want := len(d.plan.Groups) * (d.steps / k); len(st.snap) != want {
			return fmt.Errorf("an unsuperseded run logged %d snapshots, want %d", len(st.snap), want)
		}
		for key, n := range st.rows {
			if n != 1 {
				return fmt.Errorf("an unsuperseded run logged device %d's step %d losses %d times", key[0], key[1], n)
			}
		}
		if len(st.rows) != d.plan.NumDevices()*d.steps {
			return fmt.Errorf("an unsuperseded run logged %d loss rows, want %d", len(st.rows), d.plan.NumDevices()*d.steps)
		}
	}
	if i == 0 && gen.crash && gen.budget == 0 && d.topology == "hub" && d.tailOnly(gen.faults[0].Conn) {
		s := int(gen.faults[0].Step)
		if want := s/k*k - 1; st.cut != want {
			return fmt.Errorf("the crash at step %d left the cut at %d, want %d", s, st.cut, want)
		}
	}
	if i > 0 {
		for key, n := range st.rows {
			if key[1] <= before.cut && n != before.rows[key] {
				return fmt.Errorf("the resume from the cut at step %d logged device %d's step %d losses again",
					before.cut, key[0], key[1])
			}
		}
	}
	return nil
}
