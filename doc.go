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
// GOMAXPROCS. Backends are bit-identical by contract — parallel
// partitioning only ever splits along dimensions that keep each output
// element's floating-point accumulation sequence intact — so the
// engine's bit-equivalence guarantees hold on every backend, and backend
// choice (tensor.SetDefault, engine.Config.Backend, or cmd/pipebd's
// -backend flag) is purely a throughput knob. Each device loop
// draws every layer output, backward cache and gradient from a private
// tensor.Arena it resets before each block's step, so steps after the
// first allocate nothing but the activation that crosses to the next
// device.
//
// # Transformer workload
//
// Blockwise distillation is workload-agnostic, and the repository proves
// it with a second model family shaped nothing like the conv nets: a
// DistilBERT-style miniature transformer (distill.NewTransformerWorkbench,
// cmd/pipebd -cluster-model transformer). Each block is one encoder
// layer — multi-head self-attention and a feed-forward MLP as residuals,
// each followed by LayerNorm — where the student keeps the teacher's
// hidden width (so block-boundary activations align for the per-block
// loss) but runs a much narrower MLP. Block 0 embeds token ids (learned
// token + position tables); middle blocks distill hidden states with
// MSE; the final block adds a mean-pool + linear classifier head and
// distills its logits with KL divergence at a temperature
// (distill.KLLoss — gradients scaled by T² in the standard Hinton
// convention). The supporting ops live in internal/nn (Embedding,
// MultiHeadAttention, LayerNorm, GELU, FeedForward, MeanPoolSeq,
// max-subtracted SoftmaxLastDim and its backward), all with full
// finite-difference-checked gradients and eval-forward cache
// invalidation. GELU is float32 throughout, and its tanh and the
// softmax's exp are the float32 slice kernels tensor.TanhInto and
// tensor.ExpInto — every product rounded explicitly, so no port fuses a
// multiply-add and the bits depend on the input alone; 1.5 and 1 ULP,
// enforced over a sweep of the float32 range; one float32 sequence, run
// eight lanes at a time where AVX exists, with the same bits as the
// scalar loop that runs it elsewhere. The KL loss's log-softmax and MixedOp's α softmax stay on
// float64 math.Exp / math.Log: at most 8 elements a row they are cold,
// and math.Log has no kernel here. Token-sequence datasets
// (dataset.NewTokens) are
// deterministic and carry a wire.DataSpec recipe (Kind "tokens"), so
// ring workers regenerate token batches locally exactly as they do
// image batches. Attention's per-head GEMMs are skinny — m equals the
// sequence length — and run through the batched kernel entry points
// (tensor.MatMulBatch and friends), whose dispatch weighs the whole
// batch rather than one instance, so they reach the packed engine
// instead of stranding on the reference path. The transformer workload
// passes through every layer above unchanged: serial, parallel, hub,
// and ring runs are bit-identical, pinned by the transformer
// equivalence suites in internal/engine and internal/cluster and the
// cluster-transformer CI job.
//
// # Cluster execution
//
// The internal/cluster subsystem runs the same pipelined schedule across
// worker processes: a coordinator (cmd/pipebd -cluster) maps a plan's
// devices onto pipebd-worker processes over a pluggable transport
// (in-memory loopback or length-prefixed TCP), broadcasts the model spec,
// seed parameters, and batches, and routes teacher-relay activations and
// intra-group gradient all-reduce frames between stages. Workers drive
// the identical engine.RunMember device loop behind a transport-backed
// engine.DeviceLink, and the wire codec carries floats bit-exactly, so a
// cluster run reproduces RunPipelined's trajectory bit-for-bit.
//
// Every attempt of a run — the first, a restart, a resume — opens its
// sessions the same way: one dial-and-hello handshake per placement slot,
// then one Assign frame per session, which past the seed also carries each
// hosted device's state at the cut. Only the first pipeline stage touches
// a batch, and it reads it locally: regenerated from a deterministic
// dataset recipe (cluster.Config.Data) or, without one, from the schedule
// carried once in the Assign (bounded by wire.MaxPayload). No per-step
// input frame exists.
//
// Two data-plane topologies ship (cluster.Config.Topology, cmd/pipebd
// -topology). "hub" routes every activation and gradient through the
// coordinator. "ring"
// — the CLI default — has the workers dial each other from a
// coordinator-distributed placement directory (epoch-guarded so stale
// dials from a superseded attempt never join a fresh mesh): forwarded
// activations travel stage-to-stage over peer links, and split groups
// average gradients with a reduce-scatter + ring all-gather that folds
// contributions in the hub's exact ascending-rank order. The
// coordinator is demoted to a control plane — its steady-state traffic
// no longer scales with activation, gradient, or input size — and both
// topologies are bit-identical to the in-process pipeline and to each
// other.
//
// # Fault tolerance
//
// Failures are handled in three tiers, each strictly cheaper than the
// next, and every tier preserves bit-identity.
//
// Tier 1, absorb (cluster.Config.Retry, cmd/pipebd -retry-budget):
// every control and peer connection is wrapped in a resumable stream (transport.Resumable) — both sides count received
// frames, the sender buffers its unacknowledged tail, and a broken link
// redials with exponential backoff, re-opens with the hello that opened
// it (epoch and device pair, now marked resume and carrying the dialer's
// high-water mark; the coordinator's end is "no device"), and replays
// exactly the missed frames. Transient
// flaps and healing partitions cost milliseconds and consume no restart
// budget; the heartbeat monitor treats a reconnecting link as alive, so
// a flap outlasting the heartbeat timeout is not mistaken for a dead
// worker.
//
// Tier 2, degrade: a peer link persistently down past the retry budget
// whose workers both still answer a liveness probe is routed through
// the coordinator instead: every frame that crossed the edge —
// activation, ack, ring segment — travels in a relay envelope the
// coordinator forwards unopened. A degraded edge keeps its group's ring
// and changes only its transport (there is no hub-fold fallback), so a
// degraded run still verifies bit-identical, and no restart is consumed.
//
// Tier 3, global cut (cluster.Config.MaxRestarts): a genuinely lost
// worker costs a restart, and hub and ring restart the same way. Each
// group's rank-0 device streams a post-step snapshot (student parameters
// + optimizer velocities) to the coordinator. When a worker's connection
// dies — or goes silent past the heartbeat timeout — the attempt fails
// fast, every session is superseded, and the attempt driver re-places
// every device on the re-joined or surviving workers, the Assign carrying
// the state at the global cut: the newest commonly snapshotted, fully
// accounted step. Nothing in flight is salvaged (a lost worker strands a
// ring collective, and a half-assembled hub gather is no different);
// replayed work is a pure function of the restored state and the
// batches, so the recovered run's losses and trained weights stay
// bit-identical to a fault-free run. transport.Chaos injects
// deterministic, seeded fault schedules (connection kills, transient
// flaps, healing or persistent partitions, latency spikes, delays,
// truncated frames) to prove all three tiers, both in the test suites
// and from the CLI (-chaos-kills, -chaos-flaps, -chaos-partition).
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
// run is durable (cluster.Config.LedgerDir, cmd/pipebd -ledger): the
// internal/cluster/ledger package persists the run's manifest (plan,
// model spec, hyperparameters, batches, seed weights) via atomic rename
// and what the global cut is computed from — snapshots, loss rows,
// barrier releases, repartition cuts; nothing in flight — to an
// append-only, CRC-framed record log. cluster.ResumeRun (cmd/pipebd
// -resume) restarts a killed coordinator from that ledger: it replays
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
// (cluster.Config.Repartition, cmd/pipebd -repartition). The
// coordinator folds the span batches workers already ship into measured
// per-block compute costs (obs.StepAggregator; transport waits
// excluded), re-runs the plan search under those prices (sched.Replan),
// and, when the predicted improvement clears a threshold with
// hysteresis, executes a planned global cut at a synchronous step
// boundary: workers are told the session is superseded, the carry
// regroups at block boundaries onto the new placement, and the run
// resumes on the rebalanced plan via the same snapshot machinery ring
// recovery uses — without consuming the restart budget. Every plan is
// accepted, but the re-plan keeps each split group's members, shares and
// blocks and moves only the boundaries between runs of unsplit groups:
// that relocates work without reordering or regrouping any float fold,
// so the bit-identity pin survives. Cuts append to the ledger as repartition
// records, so durable runs resume across plan generations:
// cluster.ResumeRun replays each superseded generation under the plan
// that produced it and remaps the carry across the recorded boundary.
// pipebd-worker -slowdown N provides a reproducible bit-identical
// straggler for exercising the controller.
//
// # Observability
//
// The internal/obs package owns the one span model: an obs.Span under an
// obs.Category. Engine device loops, cluster workers, and the coordinator
// record per-step spans (forwards, backwards, updates, all-reduce phases,
// peer sends and ack waits, snapshot writes, ledger appends) on
// per-goroutine tracks, and the simulator's tracks record the same spans
// in virtual time, so one Gantt (internal/trace, cmd/pipebd-trace -in)
// and one Chrome exporter draw a modelled schedule and a measured run
// alike. Tracing is off by default and near-free when
// disabled — one nil check plus one atomic load per site, no allocation
// — guarded by TestDisabledTracingOverhead.
// Cluster workers ship span batches to the coordinator at step
// boundaries over a dedicated wire frame (codec v5) or dump locally
// (pipebd-worker -trace-dir). Exports: Chrome trace-event JSON (pipebd
// -trace-out, loadable in chrome://tracing or Perfetto) and a measured
// utilization report printed side-by-side with the cost model's
// prediction of the same schedule — the measured-vs-modeled comparison
// that now also feeds the runtime repartitioner. Both CLIs also expose
// -net-stats (transport.Meter role-attributed byte totals) and
// -debug-addr (net/http/pprof plus a plain-text /metrics counter page).
// Shared test helpers (the goroutine-leak assertion) live in
// internal/testutil.
//
// See README.md for the quickstart and architecture inventory and
// ROADMAP.md for open items. The benchmark of record is
// `go run ./benchmark`; kernel and layer benchmarks sit beside their code:
//
//	go test -run '^$' -bench . -benchtime 1x ./internal/tensor/ ./internal/nn/
package pipebd
