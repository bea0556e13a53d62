// Package repro reproduces "Fast and Accurate TLM Simulations using
// Temporal Decoupling for FIFO-based Communications" (Helmstetter, Cornet,
// Galilée, Moy, Vivet — DATE 2013) in Go.
//
// The repository contains a SystemC-like discrete-event kernel
// (internal/sim), temporal-decoupling utilities (internal/td), regular and
// sync-wrapped FIFOs (internal/fifo), the paper's Smart FIFO
// (internal/core), the §IV-A trace-equivalence validation framework
// (internal/trace), the §IV-B three-module benchmark (internal/pipeline,
// internal/workload) and the §IV-C heterogeneous SoC case study
// (internal/bus, internal/noc, internal/accel, internal/soc).
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results. The benchmarks in
// bench_test.go regenerate every figure of the evaluation section.
//
// # Performance notes
//
// The kernel hot paths are allocation-free in steady state: each Process
// and Event embeds its one reusable timed-queue entry, the timed queue is
// a concrete 4-ary min-heap with in-place reschedule (internal/sim/timedq.go),
// and the delta/waiter queues recycle their backing arrays. The Smart
// FIFO's external NotEmpty/NotFull notifications are subscriber-aware and
// computed lazily: while no waiter, static method or dynamic trigger is
// attached, a state change merely records the authoritative
// insertion/freeing date (sim.Event.NotifyAtReplace); the recorded date is
// scheduled as a real notification when the first subscriber attaches
// (keeping its original same-date firing order), and expires at the same
// boundary where an unobserved real notification would have been lost.
// Subscribers observe exactly the wakeups they always did; the one
// deliberate divergence is that unobservable notifications no longer keep
// the kernel alive, so Run quiesces without advancing Now to their dates.
// Allocation regressions are pinned by testing.AllocsPerRun tests in
// internal/sim and internal/core.
//
// # Bulk transfers (burst contract)
//
// Burst words advance a side's local clock by a fixed period, so their
// insertion/freeing dates form arithmetic runs. The burst APIs
// (WriteBurst, ReadBurst, TryWriteBurst, TryReadBurst on core.SmartFIFO,
// the core.ShardedFIFO endpoints and fifo.FIFO; generic dispatch helpers
// in package fifo) exploit that with run-based fast paths: a burst splits
// into runs bounded by the next internal full/empty boundary, payload
// moves with copy, dates are annotated in one vector pass, and event work
// collapses to at most one notification per event per run. The contract is
// the scalar loop — word 0 at the caller's local date, Inc(per) between
// consecutive words, blocking/Try pre-checks per word — and the bulk
// implementation is bit-identical to it: values, dates, Stats counters,
// context switches, blocking behavior and every subscriber-visible
// notification are unchanged (property tests in internal/core/burst_test.go
// pin bulk against the literal scalar oracle; trace-equivalence tests pin
// chunked models across modes and shard counts). The only observable
// difference is the diagnostic sim.Stats.Notifications counter, which
// counts fewer calls because redundant per-word notification probes are
// collapsed. The fast paths are zero-allocation in steady state and
// ≥ 5x cheaper per word than the scalar loop (BenchmarkWriteBurst,
// BenchmarkReadBurst); accelerator Generator/Sink streams, DMA chunking,
// NoC packetization and the chunked pipeline/kpn workloads ride them.
//
// # Sharded parallel execution
//
// A simulation can be partitioned into several sim.Kernel shards run in
// parallel by a conservative coordinator (internal/par) over cross-shard
// Smart-FIFO bridges (core.ShardedFIFO). The contract:
//
//   - every cross-shard interaction is a bridge: a bounded FIFO whose
//     writer and reader endpoints live on different kernels and carry the
//     paper's insertion/freeing dates across the boundary with the same
//     two-test IsEmpty/IsFull semantics;
//   - lookahead is the §III access discipline itself: write dates on a
//     side never decrease, so each bridge's frontier — last insertion
//     date, writer's local clock, next free cell's freeing date, or the
//     reader's own read floor when the writer is credit-blocked — bounds
//     everything it can still deliver. No null messages, no quantum;
//   - scheduling is frontier-driven and asynchronous: a long-lived
//     worker per shard exchanges staged data, credits and frontier
//     bounds over its own bridges, re-derives its horizon (inbound
//     frontiers strictly, outbound write frontiers inclusively) and
//     keeps stepping while an event lies inside it, poking only the
//     neighbours its publications can unblock — coordination cost
//     follows a shard's bridge degree, not the shard count;
//   - only when every worker is parked do they rendezvous: the
//     coordinator recomputes every horizon with full knowledge, and if
//     nothing is runnable even then it falls back to the globally
//     earliest event date, which is always safe to process. Lookahead
//     runs out roughly every FIFO-depth words per bridge, so deeper
//     FIFOs mean fewer rendezvous. The same scheduler runs every shard
//     count, one included (cmd/parlat measures its round-trip latency
//     and re-checks the dates against a one-kernel run of the model).
//
// Blocking Read/Write through a bridge produce local dates identical to a
// single-kernel SmartFIFO — 1-shard and N-shard runs of the same model
// are trace-equivalent (internal/trace), which internal/pipeline
// (Config.Shards) and the clustered SoC variant (soc.RunClustered) pin in
// their tests. Non-blocking and monitor views observe delivered state
// only, exact up to the inbound frontier: fill-level samples of in-flight
// streams are schedule-dependent, as they are on real silicon.
//
// Two horizon rules keep that exactness under arbitrary partitionings:
// the inbound frontier bounds a shard STRICTLY (a non-blocking reader
// polling at date D already holds every word inserted at or before D),
// and each outbound bridge's WriteFrontier caps the shard's kernel clock
// at the date a credit-blocked writer must resume at — a co-located
// process may not drag the clock past it, because a parked writer's
// restored decoupled date cannot lie in the kernel's past.
//
// # Netlist: declarative component graphs
//
// internal/netlist is the wiring layer above the kernels: models declare
// Modules (a thread body or a structural elaboration hook plus typed
// in/out Ports) and Channels (depth, burst hint, optional traffic
// weight), and Graph.Build elaborates the graph onto N kernels. The
// bridge auto-insertion rule: a channel whose writer and reader modules
// share a shard elaborates as a plain core.SmartFIFO (or a regular/sync
// FIFO for reference builds); a channel cut by the partitioning becomes
// a core.ShardedFIFO bridge registered with the coordinator. Exactly one
// module writes and one module reads each channel (the Kahn discipline
// the dates rely on); modules that must share a kernel — a bus and the
// cores behind it, a NoC mesh and its network interfaces — declare a
// colocation group, which the pluggable partitioners (single,
// roundrobin, traffic-weighted greedy mincut) place as one unit.
// Because bridges are date-exact, the partitioning never changes dated
// results: every partitioner at every shard count reproduces the
// single-kernel dates, pinned over generated chain/ring/tree/mesh
// topologies by internal/netlist's trace-equivalence suite. All five
// workload models build through the netlist, and the "netlist" scenario
// model exposes the topology generators (kind, size, shards,
// partitioner) as ordinary sweepable spec parameters.
//
// # Scenario and campaign layers
//
// Above the kernels sits declarative design-space exploration — the unit
// of work becomes many independent simulations, not one. internal/scenario
// defines JSON-decodable Specs (model name + parameters + a Matrix of
// sweep axes), expands them into concrete points by cartesian product,
// hashes each point canonically for dedup, and keeps the registry the
// workload packages (internal/pipeline, internal/soc, internal/kpn,
// internal/noc, internal/netlist) self-register their models in; all
// payload and rate
// randomness derives from the spec seed through scenario.Rand, so a spec
// is a complete, reproducible description of its traces. internal/campaign
// executes expanded points across a GOMAXPROCS worker pool with
// hash-keyed caching, runs sampled trace-equivalence spot checks
// (decoupled vs reference via trace.Diff), and emits results in
// deterministic expansion order: the default JSON/CSV documents carry no
// wall-clock fields and are byte-identical across worker counts. cmd/simd
// serves the engine over HTTP (submit/status/results, graceful shutdown);
// cmd/campaign drives it from a spec file (the CI determinism smoke pins
// a golden results document).
//
// # Metrics and scheduler timelines
//
// internal/metrics is a dependency-free observability layer: a registry
// of atomically updated counters, gauges and fixed-bucket histograms
// with a Prometheus text-format (0.0.4) encoder. Updates are
// zero-allocation and safe from shard workers. Each subsystem publishes
// into a registry handed over at startup — sim.EnableMetrics (kernels
// fold Stats deltas in at interrupt-poll safe points, never per
// dispatch), core.EnableBridgeMetrics (bridge words/credits counted per
// flush, never per word), par.EnableMetrics (parks, graded wakes,
// rendezvous, exchange-latency histogram) and campaign.NewMetrics
// (point lifecycle, cache hits, active workers/campaigns). Everything
// no-ops at a nil check when disabled; AllocsPerRun regressions pin the
// hot paths at 0 allocs both ways. The async coordinator can also
// record a scheduler timeline — per-worker ring buffers of
// park/wake/exchange/rendezvous/step records — dumped as Chrome
// trace_event JSON for chrome://tracing or ui.perfetto.dev via the
// -simtrace flags on fifobench/socbench/parlat or simd's /debug/trace
// endpoint; simd serves the registry at GET /metrics and per-campaign
// live counters at /campaigns/{id}/stats.
package repro
