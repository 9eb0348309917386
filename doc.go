// Package pipebd is a Go reproduction of "Pipe-BD: Pipelined Parallel
// Blockwise Distillation" (Jang et al., DATE 2023, arXiv:2301.12443).
//
// The repository implements the paper's scheduling contribution — teacher
// relaying, decoupled parameter update, and automatic hybrid distribution
// — along with both baselines (data-parallel block-by-block training and
// layerwise bin-packing scheduling), on two substrates:
//
//   - a deterministic analytic multi-GPU simulator (internal/hw,
//     internal/cost, internal/sim, internal/pipeline) that regenerates
//     every table and figure of the paper's evaluation, and
//   - a real concurrent training engine (internal/nn, internal/distill,
//     internal/engine) that validates the mathematical-equivalence claim
//     with actual float32 training and goroutine-per-device pipelines.
//
// # One schedule, two executors
//
// A strategy is data: a sched.Program, phases of stages — member devices
// and batch shares, the student blocks trained, input from the loader
// (behind a teacher-only prefix) or relayed from the previous stage —
// plus whether updates wait on the per-step barrier. sched.DataParallel
// and sched.Layerwise build the DP and LS baselines, sched.TeacherRelaying
// everything from TR to AHD on different plans. pipeline.Run plays a
// program in virtual time, engine.Run on real kernels through the device
// loop the cluster's workers also run; neither branches on a strategy's
// name, and pipeline.Ladder alone pairs the paper's six names with
// programs.
//
// The paper profiles every block before training and plans against that
// table (§V-B). That step lives in sched.Price — what a step of a stage
// costs each member on its own GPU at its own batch share — and
// sched.Memory, what the member holds: pipeline.Run plays those numbers.
// One search picks every partition: it enumerates device compositions
// against block compositions under a constraint and keeps the cheapest
// under a price source. sched.AHD admits every hybrid plan and rejects on
// the same memory, sched.TRContiguous one device per group; both price
// with the analytic model. The runtime re-plan (sched.Replan) keeps every
// split group and prices from a live run's measured per-block means.
//
// # Compute backends
//
// The numeric engine's kernels run on a pluggable tensor.Backend. Two
// implementations ship: "serial", the single-threaded reference, and
// "parallel", which row-partitions the GEMM family (and im2col/col2im and
// elementwise ops) across a process-wide bounded worker pool sized by
// GOMAXPROCS. Every GEMM runs one microkernel, two adjacent 8-column
// panels per call, that finds each row of B through an offset table: in
// a packed panel, in a small row-major B read in place, or — for a
// stride-1 convolution whose output rows are whole 8-column panels — as
// a kernel tap read in place from the input (zero-bordered first when the
// convolution pads), so the teacher's convolutions pack no im2col
// panels. Which kernels run is the host's tier, probed once at start-up:
// AVX-512 lanes for the GEMM and AVX lanes for the rest where the CPU has
// them, AVX lanes on an AVX2-only host, portable Go elsewhere; no flag
// selects it, and every tier computes the same bits. Backends are
// bit-identical by contract — parallel
// partitioning only ever splits along dimensions that keep each output
// element's floating-point accumulation sequence intact — so the
// engine's bit-equivalence guarantees hold on every backend, and backend
// choice (tensor.SetDefault, engine.Config.Backend, or cmd/pipebd's
// -backend flag) is purely a throughput knob. Each device loop
// draws every layer output, backward cache and gradient from a private
// tensor.Arena it resets before each block's step, and the in-process
// link relays each boundary activation in one of relayDepth+2 buffers
// per boundary, which the consumer hands back at its next receive: the
// loop allocates nothing in a steady-state step on either link, and the
// in-process link nothing either. Nor does a warm cluster step allocate a
// frame: a worker encodes its activation, ring segments, losses, barrier
// arrival, acks and snapshots into pooled buffers (wire.Frame.Release),
// reads every frame into one, wraps a peer frame for a relayed edge by
// reslicing its buffer, and the coordinator forwards a relay envelope
// unopened. A pooled frame is released by its last holder: Send takes the
// caller's reference, a frame enqueued to several outboxes holds one per
// outbox, and whoever consumes a received frame releases it once read. A
// frame nobody releases is garbage — a missed release costs an
// allocation, never a wrong bit — and test binaries poison a released
// buffer before its reuse. A resumable link's acknowledgements are pooled
// too, and a TCP connection reads through a buffer it takes from a
// process-wide cache and gives back once its reads end. The coordinator
// never decodes a snapshot: it holds a frame until the loop has carried
// out the frame's effects, so a snapshot's bytes go from the frame into
// the run's ledger.Account, which owns copies in buffers it recycles
// below the cut, and onto the log through the ledger's one record buffer.
// A warm durable step allocates nothing on the coordinator either; span
// batches (tracing only) still allocate.
//
// # Transformer workload
//
// Blockwise distillation is workload-agnostic, and the repository proves
// it with a second model family shaped nothing like the conv nets: a
// DistilBERT-style miniature transformer (distill.NewTransformerWorkbench,
// the cluster mode's -cluster-model transformer). Each block is one encoder
// layer — multi-head self-attention and a feed-forward MLP as residuals,
// each followed by LayerNorm — where the student keeps the teacher's
// hidden width (so block-boundary activations align for the per-block
// loss) but runs a much narrower MLP. Block 0 embeds token ids (learned
// token + position tables); middle blocks distill hidden states with
// MSE; the final block adds a mean-pool + linear classifier head and
// distills its logits with KL divergence at a temperature
// (distill.KLLoss — gradients scaled by T² in the standard Hinton
// convention). The supporting ops live in internal/nn (Embedding,
// MultiHeadAttention, LayerNorm, GELU, FeedForward, MeanPoolSeq), all
// with full finite-difference-checked gradients and eval-forward cache
// invalidation; their row loops are internal/tensor row kernels
// (tensor.LayerNormInto, the max-subtracted tensor.SoftmaxInto with
// attention's 1/√dₕ folded in, tensor.GELUInto, their backwards, and
// Linear's tensor.AddRowBias / AddColumnSums), each a scalar loop run bit
// for bit in AVX lanes where AVX exists — a row's float64 sums one
// ascending chain per lane, four rows at once. GELU is float32
// throughout, and its tanh and the
// softmax's exp are the float32 slice kernels tensor.TanhInto and
// tensor.ExpInto — every product rounded explicitly, so no port fuses a
// multiply-add and the bits depend on the input alone; 1.5 and 1 ULP,
// enforced over a sweep of the float32 range; one float32 sequence, run
// eight lanes at a time where AVX exists, with the same bits as the
// scalar loop that runs it elsewhere. The KL loss's log-softmax and MixedOp's α softmax stay on
// float64 math.Exp / math.Log: at most 8 elements a row they are cold,
// and math.Log has no kernel here. Synthetic data is a function of
// (seed, sample): each sample's pixels or token ids, and its label, are
// SplitMix64 draws keyed by the seed, the sample and the element
// (dataset.ImageRows, dataset.TokenRows), so any row of any batch is
// built alone. A wire.DataSpec recipe (Kind "" or "tokens") names a
// run's data, and a first-stage worker builds each step's batch from it
// when it consumes the step. Attention's per-head GEMMs are skinny — m equals the
// sequence length — and run through the batched kernel entry points
// (tensor.MatMulBatch and friends): one call for every instance pays
// the packed engine's fixed costs once and spreads all their row tiles
// over the pool. The transformer workload
// passes through every layer above unchanged: serial, parallel, hub,
// and ring runs are bit-identical, pinned by the transformer
// equivalence suites in internal/engine, FuzzClusterRun's transformer
// draws in internal/cluster and the cluster-transformer CI job.
//
// # Cluster execution
//
// The internal/cluster subsystem runs the same pipelined schedule across
// worker processes: a coordinator (pipebd cluster ADDR,...) maps a
// plan's devices onto worker processes (pipebd worker) over a pluggable
// transport (in-memory loopback or length-prefixed TCP), broadcasts the
// model spec,
// seed parameters, and the data recipe, and routes teacher-relay activations and
// intra-group gradient all-reduce frames between stages. Workers drive
// the identical engine.RunMember device loop behind a transport-backed
// engine.DeviceLink, and the wire codec carries floats bit-exactly, so a
// cluster run reproduces RunPipelined's trajectory bit-for-bit.
//
// Every attempt of a run — the first, a restart, a resume — opens its
// sessions the same way: one dial-and-hello handshake per placement slot,
// then one Assign frame per session, which past the seed also carries each
// hosted device's state at the cut. Only the first pipeline stage touches
// a batch, and it builds each step's locally, into one reused buffer,
// from the run's deterministic dataset recipe (cluster.Config.Data,
// required): the recipe is the one copy of the data the Assign and a
// durable run's manifest carry. No per-step input frame exists.
//
// There is one data plane: forwarded activations travel stage to stage
// between the devices, and split groups average gradients with a
// reduce-scatter + ring all-gather that folds contributions in the
// in-process engine's exact ascending-rank order. The two topologies
// (cluster.Config.Topology, the cluster mode's -topology) only say how its peer
// edges are carried. "ring" — the CLI default — has the workers dial each
// other from a coordinator-distributed placement directory
// (epoch-guarded so stale dials from a superseded attempt never join a
// fresh mesh), so the coordinator is a control plane whose steady-state
// traffic does not scale with activation or gradient size. "hub" relays
// every edge through the coordinator, which forwards the envelopes
// unopened. Both are bit-identical to the in-process pipeline and to each
// other.
//
// # Fault tolerance
//
// Failures are handled in three tiers, each strictly cheaper than the
// next, and every tier preserves bit-identity.
//
// Tier 1, absorb (cluster.Config.RetryBudget, the cluster mode's -retry-budget):
// every control and peer connection is wrapped in a resumable stream (transport.Resumable) — both sides count received
// frames, the sender buffers its unacknowledged tail, and a broken link
// redials with backoff (10 ms, doubling to 50 ms), re-opens with the hello that opened
// it (epoch and device pair, now marked resume and carrying the dialer's
// high-water mark; the coordinator's end is "no device"), and replays
// exactly the missed frames. Transient flaps and healing partitions cost
// milliseconds and consume no restart budget; the coordinator's heartbeat
// rule treats a reconnecting link as alive, so a flap outlasting the
// heartbeat timeout is not mistaken for a dead worker.
//
// Tier 2, degrade: a peer link persistently down past the retry budget
// whose workers both still answer a liveness probe is routed through
// the coordinator instead: every frame that crossed the edge —
// activation, ack, ring segment — travels in a relay envelope the
// coordinator forwards unopened — exactly how the hub carries every
// edge. A degraded edge keeps its group's ring and changes only its
// transport, so a degraded run still verifies bit-identical, and no
// restart is consumed.
//
// Tier 3, global cut (cluster.Config.MaxRestarts): a genuinely lost
// worker costs a restart, and hub and ring restart the same way. Each
// group's rank-0 device streams a post-step snapshot (a value and a
// velocity slab per student block) to the coordinator. When a worker's
// connection dies — or goes silent past the heartbeat timeout — the
// attempt fails fast, every session is superseded, and the attempt
// driver re-places every device on the re-joined or surviving workers,
// the Assign carrying each device's slabs at the global cut, the newest
// commonly snapshotted, fully accounted step; the worker installs them a
// slab per copy. Nothing in flight is salvaged (a lost worker strands a
// ring collective and a half-assembled input, relayed or not);
// replayed work is a pure function of the restored state and the
// batches, so the recovered run's losses and trained weights stay
// bit-identical to a fault-free run. transport.Chaos injects
// deterministic, seeded fault schedules (connection kills, transient
// flaps, healing or persistent partitions, latency spikes, delays,
// truncated frames) to prove all three tiers, both in the test suites
// and from the CLI (-chaos-kills, -chaos-flaps, -chaos-partition). The
// frame-triggered faults — kills inside or past the restart budget,
// flaps, truncation, a coordinator crash and its resume — are drawn by
// one generative check, FuzzClusterRun in internal/cluster: a uint64
// seed draws the run and its faults, and every draw must end with the
// in-process engine's losses and weights and exactly the restarts its
// kills call for (go test -run 'FuzzClusterRun/<corpus file>'
// ./internal/cluster/ replays a committed seed). The timed faults
// (heartbeat silence, retry budgets, partition and delay windows) keep
// hand-written suites on a manual clock: every wait of the cluster reads
// the clock its transport carries (transport.Clock, the wall clock in
// production), so each suite pins the exact instant its timeout fires.
//
// Snapshot traffic is one snapshot per group — the members of a split
// group are bit-identical replicas, so only rank 0 snapshots and a
// snapshot from any other rank is a protocol error — every k-th step
// (cluster.Config.Snapshot's interval); a snapshotted step becomes the
// cut only once every member's losses and barrier arrivals are accounted
// for.
//
// # Durable runs
//
// The coordinator itself stops being a single point of failure when a
// run is durable (cluster.Config.LedgerDir, the cluster mode's -ledger): the
// internal/cluster/ledger package persists the run's manifest (plan,
// model spec, hyperparameters, data recipe, seed weights) via atomic rename
// and what the global cut is computed from — snapshots, loss rows,
// barrier releases, repartition cuts; nothing in flight — to an
// append-only, CRC-framed record log. cluster.ResumeRun (pipebd resume DIR)
// restarts a killed coordinator from that ledger: it replays
// the log up to the last complete record (a tail torn by the kill is
// truncated away) to recover the cut, hands it to the same attempt
// driver a live restart uses, and finishes the run bit-identical to an
// uninterrupted one.
// The ledger's durability tier is configurable (-fsync none, interval=N,
// or always: page cache, bounded fdatasync, or sync-per-append), and
// flags passed alongside -resume become checked expectations against the
// manifest instead of being silently ignored.
//
// # Dynamic repartitioning
//
// A run whose placement turns out wrong — one device measurably slower
// than the plan was priced for — can rebalance itself mid-run
// (cluster.Config.Repartition, the cluster mode's -repartition). The
// coordinator folds the span batch each device ships per step into
// measured per-block compute costs (obs.BlockBusy; transport waits
// excluded) and, once every device has measured a step, re-runs the plan
// search under the means (sched.Replan) and prices the proposal against
// the placement on that step's own costs (sched.Reprice). When the
// 10%-trimmed mean of those paired improvements, three standard errors
// down, clears 10%,
// it executes a planned global cut at a synchronous step
// boundary: workers are told the session is superseded, the run's
// restart state (ledger.Account) regroups at block boundaries onto the
// new placement, and the run resumes on the rebalanced plan via the same
// snapshot machinery ring recovery uses — without consuming the restart
// budget. Every plan is
// accepted, but the re-plan keeps each split group's members, shares and
// blocks and moves only the boundaries between runs of unsplit groups:
// that relocates work without reordering or regrouping any float fold,
// so the bit-identity pin survives. Cuts append to the ledger as repartition
// records, so durable runs resume across plan generations:
// cluster.ResumeRun replays the log through the same account, which
// performs each recorded remap as the live run did.
// A worker started with -slowdown 8 (pipebd worker -slowdown 8) is a
// reproducible bit-identical straggler for exercising the controller: its
// backend kernels (GEMMs, convolutions, elementwise) take 8× as long, but
// the depthwise conv, BatchNorm, ReLU, MSE and row kernels do not, so the
// device slows by less than 8×. The
// controller's suites use a costed one instead: its kernels advance a
// clock (an obs.Clock) that the hosted devices' spans read, plus seeded
// stalls keyed on each kernel's output, so what the controller measures,
// and decides, is a function of shapes, rates and seeds.
//
// # Observability
//
// The internal/obs package owns the one span model: an obs.Span under an
// obs.Category. Engine device loops, cluster workers, and the coordinator
// record per-step spans (forwards, backwards, updates, all-reduce phases,
// peer sends and ack waits, snapshot writes, ledger appends) on
// per-goroutine tracks, and the simulator's tracks record the same spans
// in virtual time, so one Gantt (internal/trace, pipebd gantt -in FILE)
// and one Chrome exporter draw a modelled schedule and a measured run
// alike. Tracing is off by default and near-free when
// disabled — one nil check plus one atomic load per site, no allocation
// — guarded by TestDisabledTracingOverhead.
// Cluster workers ship span batches to the coordinator at step
// boundaries over a dedicated wire frame (codec v5) or dump locally
// (pipebd worker -trace-dir DIR). Exports: Chrome trace-event JSON (the
// cluster mode's -trace-out, loadable in chrome://tracing or Perfetto)
// and a measured utilization report printed side-by-side with the cost
// model's prediction of the same schedule — the measured-vs-modeled
// comparison that now also feeds the runtime repartitioner. The cluster
// and worker modes also expose -net-stats (transport.Meter
// role-attributed byte totals) and -debug-addr (net/http/pprof plus a
// plain-text /metrics counter page). Every decision a coordinator makes —
// a placement, an absorbed flap, a peer link reported down, a worker
// declared dead or dropped once finished, a degrade, a restart, a
// repartition, a resume from its ledger — is one cluster.Event value,
// handed to cluster.Config.OnEvent (cluster.ResumeConfig.OnEvent) and
// counted in Config.Metrics: the cluster and resume modes print each as
// one line and count their closing summary from the events, and the
// suites assert on the events' fields, never on log text.
// Shared test helpers (the goroutine-leak assertion) live in
// internal/testutil.
//
// See README.md for the quickstart and architecture inventory and
// ROADMAP.md for open items. The benchmark of record is
// `go run ./benchmark`; kernel and layer benchmarks sit beside their code:
//
//	go test -run '^$' -bench . -benchtime 1x ./internal/tensor/ ./internal/nn/
package pipebd
