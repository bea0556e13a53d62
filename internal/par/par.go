// Package par executes a partitioned simulation: N sim.Kernel shards, each
// advanced on its own long-lived worker goroutine, scheduled conservatively
// over the Smart-FIFO dates carried by cross-shard bridges
// (core.ShardedFIFO).
//
// # Protocol
//
// Progress is frontier-driven and asynchronous: each shard's worker loops
// through
//
//  1. exchange — for every inbound bridge, publish freed-cell credits and
//     import delivered data; for every outbound bridge, stage written data
//     and publish the frontier bound (Bridge's locked, directional
//     halves of Flush). Peers whose inputs changed are poked awake;
//  2. horizon — the minimum over the inbound bridges' effective frontiers
//     — a lower bound on the insertion dates of anything that can still
//     arrive, taken STRICTLY (the shard stops short of the bound, so a
//     non-blocking reader polling at date D has every word inserted at or
//     before D already delivered) — and the outbound bridges'
//     WriteFrontiers — the shard's kernel clock must never pass the date
//     a credit-blocked writer resumes at, or the writer's restored
//     decoupled local date would clamp to the clock. A shard with no
//     bridges is unbounded;
//  3. step — if the shard holds an event inside its horizon, run the
//     kernel up to it (Kernel.Step) and loop; otherwise park until a peer
//     pokes.
//
// A shard therefore advances the moment its own inbound frontiers allow —
// no all-shard rendezvous, no global round as the unit of progress. When
// every live worker is parked, the Run goroutine takes the all-parked
// rendezvous: a global safe point where it force-flushes every bridge
// (delivering anything withheld), recomputes horizons with full knowledge,
// and either hands the runnable shards one-shot horizon grants, applies
// the global-minimum fallback (see Stats.Fallbacks) when every frontier is
// frozen, or concludes global quiescence: no shard has any pending event
// inside the run limit. That covers both normal termination and model
// deadlock; Blocked distinguishes them.
//
// The scheme is null-message-free: the lookahead a CMB-style scheduler
// would ship in null messages is already present in the Smart-FIFO access
// discipline — write dates on a side never decrease, so the last insertion
// date (plus the writer's local clock, which a temporally decoupled writer
// pushes far ahead of its kernel's date) bounds all future traffic on the
// bridge. A shard runs ahead of the global date exactly as far as the
// paper's cell timestamps prove safe, and blocking bridge accesses
// reproduce single-kernel Smart-FIFO dates bit for bit, since every
// published bound is conservative no matter when it is observed.
//
// The same scheduler runs every shard count: a single-shard coordinator
// (self-bridges only, the degenerate mapping every sharded model
// supports) is one worker plus the rendezvous.
package par

import (
	"fmt"
	"sync/atomic"

	"repro/internal/sim"
)

// Bridge is a cross-shard channel. core.ShardedFIFO implements it; any
// channel that can report a conservative frontier, deliver at global
// safe points, and split its exchange into two directional halves can
// participate.
type Bridge interface {
	// Name identifies the bridge in diagnostics.
	Name() string
	// WriterKernel is the shard that produces into the bridge.
	WriterKernel() *sim.Kernel
	// ReaderKernel is the shard that consumes from the bridge.
	ReaderKernel() *sim.Kernel
	// Frontier returns a lower bound on the dates of all future
	// deliveries. Called only at global safe points (all-parked
	// rendezvous), after Flush. sim.TimeMax means the bridge can never
	// deliver again.
	Frontier() sim.Time
	// WriteFrontier returns a lower bound on the resume date of any
	// writer-side access that blocks on exhausted credits. The writer's
	// shard must not advance its kernel clock past it: a parked writer
	// restores its decoupled local date on wake, and the kernel cannot
	// represent a local date in the global past — an overshooting
	// co-located process would clamp the restore and corrupt the dates.
	// Called only at global safe points, after Flush. sim.TimeMax means
	// the writer can never block again.
	WriteFrontier() sim.Time
	// Flush moves staged data across the boundary and reports whether
	// anything moved. Called only at global safe points.
	Flush() bool
	// FlushWriterSide is the writer shard's half of an exchange, safe
	// to call from the writer shard's worker while the reader shard
	// keeps running: stage the outbox, import freed-cell credits, and
	// publish the frontier base — or, with deferData set (the
	// DeferFlush injection), skip the exchange entirely and leave the
	// previously published (still valid) bounds in place. It returns
	// the current write-frontier bound plus two publication grades:
	// data when words were staged (can make a reader process runnable),
	// bound when only a frontier bound was raised (useful solely to a
	// horizon-capped reader shard).
	FlushWriterSide(deferData bool) (writeFrontier sim.Time, data, bound bool)
	// FlushReaderSide is the reader shard's half, safe to call from the
	// reader shard's worker while the writer shard keeps running:
	// publish freed-cell credits and the pop floor, import delivered
	// data, and return the effective inbound frontier (monotone across
	// calls) plus the graded publication flags: credit when freed cells
	// crossed against a writer-published full window (can make a
	// credit-parked writer process runnable), bound for any credit or
	// floor publication.
	FlushReaderSide() (frontier sim.Time, credit, bound bool)
}

// Stats counts coordinator activity. The values depend on goroutine
// interleaving — report them as performance telemetry, never as part of
// a deterministic model output.
type Stats struct {
	// Advances counts kernel Step dispatches that found work, summed
	// over the shards — the unit of progress (shards advance
	// independently).
	Advances uint64
	// Rounds counts all-parked rendezvous that dispatched work. Most
	// progress happens between rendezvous, so Rounds is far below
	// Advances.
	Rounds uint64
	// Flushes counts bridge exchanges that moved data or credits across
	// a shard boundary, or raised a published bound.
	Flushes uint64
	// Fallbacks counts rendezvous resolved by the global-minimum rule:
	// no shard had work inside its frontier-derived horizon, so the
	// shards holding the globally earliest event were advanced to
	// exactly that date. This happens when every frontier is frozen —
	// typically the drain phase of a model whose producers park forever
	// instead of terminating (idle accelerators waiting for a next job).
	Fallbacks uint64
}

// counters is the internal, atomically updated form of Stats: the shard
// workers bump them concurrently.
type counters struct {
	advances  atomic.Uint64
	rounds    atomic.Uint64
	flushes   atomic.Uint64
	fallbacks atomic.Uint64
}

// shard is one kernel plus its coordination state.
type shard struct {
	k        *sim.Kernel
	idx      int
	inbound  []Bridge
	outbound []Bridge
	// inPeer/outPeer are the peer shard indices of inbound/outbound,
	// for pokes.
	inPeer  []int
	outPeer []int
	horizon sim.Time
	run     bool   // selected to run at this rendezvous
	advs    uint64 // per-shard advance ordinal (worker-local)
}

// Coordinator drives a set of shards to global quiescence.
type Coordinator struct {
	shards   []*shard
	byKernel map[*sim.Kernel]*shard
	bridges  []Bridge
	ctr      counters
	running  bool

	// intr is the coordinator-level interrupt latch (see Interrupt).
	intr atomic.Bool

	// hooks is the fault-injection surface (nil in production).
	hooks *Hooks

	// m is the optional shared metrics sink, captured at construction
	// (metrics.go); tl is the scheduler timeline recording the next Run
	// (timeline.go) — attached explicitly (SetTimeline, tlOwned) or
	// auto-created per Run while SetTraceCapture is armed.
	m       *SchedMetrics
	tl      *Timeline
	tlOwned bool
}

// Hooks is the coordinator's fault-injection surface, used by the chaos
// harness (internal/chaos) to perturb scheduling without touching the
// protocol. All hooks are optional; a nil *Hooks disables injection.
type Hooks struct {
	// BeforeStep runs on the shard's worker goroutine immediately before
	// Kernel.Step. It may sleep (scheduling jitter) or panic (an induced
	// shard failure); it must not touch kernel state. advance is the
	// shard's own advance ordinal (1-based), so "the shard's first step
	// at or after advance R" is well-defined. Hooks must be safe for
	// concurrent calls from different shard workers.
	BeforeStep func(shard int, k *sim.Kernel, advance uint64)
	// DeferFlush, when it returns true, withholds the writer shard's
	// half of one exchange on outbound bridge b, leaving the previously
	// published (still valid) bounds in place. The delay never changes
	// dates, and every bridge is force-flushed at the next all-parked
	// rendezvous before the coordinator concludes anything about
	// quiescence. advance is the writer shard's advance ordinal. Hooks
	// must be safe for concurrent calls.
	DeferFlush func(b Bridge, advance uint64) bool
}

// SetHooks installs (or, with nil, removes) the fault-injection hooks.
// Must not be called while Run is in progress.
func (c *Coordinator) SetHooks(h *Hooks) {
	if c.running {
		panic("par: SetHooks called while running")
	}
	c.hooks = h
}

// Interrupt asks the coordinator and every shard kernel to stop at the
// next safe point: in-flight Steps return at their kernel's next safe
// point, and Run returns at the all-parked rendezvous that follows. Safe
// from any goroutine. The latch persists until ClearInterrupt.
func (c *Coordinator) Interrupt() {
	c.intr.Store(true)
	for _, s := range c.shards {
		s.k.Interrupt()
	}
}

// Interrupted reports whether an interrupt is latched.
func (c *Coordinator) Interrupted() bool { return c.intr.Load() }

// ClearInterrupt unlatches the coordinator and every shard kernel so the
// run can be resumed. Call only while Run is not in progress.
func (c *Coordinator) ClearInterrupt() {
	c.intr.Store(false)
	for _, s := range c.shards {
		s.k.ClearInterrupt()
	}
}

// Progress returns the simulated-time beacon stall watchdogs sample:
// the sum of every shard's published simulated time (sim.Kernel.Beacon).
// Two equal samples a stall window apart mean no shard advanced
// simulated time at all in between — the run is deadlocked across a
// bridge, livelocked in delta cycles at one date, or stuck in a
// non-cooperative call; the stall diagnostic's per-shard Beat and
// blocked-thread snapshot say which. Wall-clock-slow but advancing
// models keep the beacon climbing and are never flagged.
func (c *Coordinator) Progress() uint64 {
	var p uint64
	for _, s := range c.shards {
		p += uint64(s.k.Beacon())
	}
	return p
}

// PanicSet carries the panic values of every shard that failed before
// the same all-parked rendezvous, joined so no secondary failure is
// masked. It is the value Run re-panics when more than one shard
// panicked.
type PanicSet []any

// Error formats all joined panics; PanicSet satisfies error so recovered
// values print usefully through %v.
func (p PanicSet) Error() string {
	s := fmt.Sprintf("par: %d shards panicked before one rendezvous:", len(p))
	for i, v := range p {
		s += fmt.Sprintf(" [%d] %v;", i, v)
	}
	return s
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{
		byKernel: make(map[*sim.Kernel]*shard),
		m:        defaultSchedMetrics.Load(),
	}
}

// AddShard registers a kernel as a shard. Every kernel referenced by a
// bridge must be added before AddBridge.
func (c *Coordinator) AddShard(k *sim.Kernel) {
	if _, dup := c.byKernel[k]; dup {
		panic(fmt.Sprintf("par: shard %q added twice", k.Name()))
	}
	s := &shard{k: k, idx: len(c.shards)}
	c.byKernel[k] = s
	c.shards = append(c.shards, s)
}

// AddBridge registers a cross-shard channel. Both endpoint kernels must
// already be shards; they may be the same shard (a degenerate bridge,
// still exchanged — how an N-shard model collapses to 1 shard).
func (c *Coordinator) AddBridge(b Bridge) {
	r, ok := c.byKernel[b.ReaderKernel()]
	if !ok {
		panic(fmt.Sprintf("par: bridge %q: reader kernel %q is not a shard", b.Name(), b.ReaderKernel().Name()))
	}
	w, ok := c.byKernel[b.WriterKernel()]
	if !ok {
		panic(fmt.Sprintf("par: bridge %q: writer kernel %q is not a shard", b.Name(), b.WriterKernel().Name()))
	}
	r.inbound = append(r.inbound, b)
	r.inPeer = append(r.inPeer, w.idx)
	w.outbound = append(w.outbound, b)
	w.outPeer = append(w.outPeer, r.idx)
	c.bridges = append(c.bridges, b)
}

// Kernels returns the shard kernels in registration order.
func (c *Coordinator) Kernels() []*sim.Kernel {
	out := make([]*sim.Kernel, len(c.shards))
	for i, s := range c.shards {
		out[i] = s.k
	}
	return out
}

// Stats returns a snapshot of the coordinator counters. Safe to call
// concurrently with a run, though the counters move while it does.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Advances:  c.ctr.advances.Load(),
		Rounds:    c.ctr.rounds.Load(),
		Flushes:   c.ctr.flushes.Load(),
		Fallbacks: c.ctr.fallbacks.Load(),
	}
}

// KernelStats sums the activity counters of every shard.
func (c *Coordinator) KernelStats() sim.Stats {
	var t sim.Stats
	for _, s := range c.shards {
		st := s.k.Stats()
		t.ContextSwitches += st.ContextSwitches
		t.MethodActivations += st.MethodActivations
		t.DeltaCycles += st.DeltaCycles
		t.TimedSteps += st.TimedSteps
		t.Notifications += st.Notifications
	}
	return t
}

// Now returns the conservative global date: the minimum of the shard
// clocks (every event before it has been simulated).
func (c *Coordinator) Now() sim.Time {
	if len(c.shards) == 0 {
		return 0
	}
	min := c.shards[0].k.Now()
	for _, s := range c.shards[1:] {
		if n := s.k.Now(); n < min {
			min = n
		}
	}
	return min
}

// Run executes the shards until global quiescence, or — with
// limit >= 0 — until no shard has activity dated at or before limit.
// Like Kernel.Run it may be called again to resume with a larger limit.
// Every shard count takes the frontier-driven scheduler (see the package
// doc).
func (c *Coordinator) Run(limit sim.Time) {
	if c.running {
		panic("par: Run called re-entrantly")
	}
	c.running = true
	defer func() { c.running = false }()
	// Arm the scheduler timeline: an explicitly attached one keeps
	// accumulating; otherwise a fresh per-Run capture while
	// SetTraceCapture is on. Either way the finished trace is published
	// through LastTrace when the run returns.
	if !c.tlOwned && len(c.shards) > 1 {
		if n := traceCapacity.Load(); n > 0 {
			c.tl = c.newTimeline(int(n))
		} else {
			c.tl = nil
		}
	}
	if c.tl != nil {
		defer func() {
			lastTrace.Store(c.tl)
			if !c.tlOwned {
				c.tl = nil
			}
		}()
	}
	c.runAsync(limit)
}

// selectByFrontiers recomputes every shard's horizon from its bridges'
// published bounds and marks the shards holding an event inside it,
// returning how many there are. Called only at global safe points, after
// the bridges were flushed.
func (c *Coordinator) selectByFrontiers(limit sim.Time) int {
	work := 0
	for _, s := range c.shards {
		// The inbound bound is STRICT: a shard may only process
		// events dated before its bridges' frontiers. An inclusive
		// bound would let a non-blocking (method/Try) reader poll at
		// date D before a word inserted exactly at D has crossed the
		// boundary — a visibility miss a single-kernel Smart FIFO
		// cannot have. (Blocking access is indifferent: a parked
		// reader advances to the datum's exact date either way.)
		h := sim.TimeMax
		for _, b := range s.inbound {
			if f := b.Frontier(); f < h {
				h = f
			}
		}
		// The outbound bound is inclusive: never run the kernel
		// clock PAST the date a credit-blocked writer on this shard
		// must resume at, or its restored (decoupled) local date
		// would clamp to the clock.
		for _, b := range s.outbound {
			if f := b.WriteFrontier(); f != sim.TimeMax && f+1 < h {
				h = f + 1
			}
		}
		if limit >= 0 && limit+1 > 0 && limit+1 < h {
			h = limit + 1
		}
		s.horizon = h
		s.run = false
		if at, ok := s.k.NextEventAt(); ok && at < h {
			s.run = true
			work++
		}
	}
	return work
}

// fallback applies the global-minimum rule after selectByFrontiers found
// no runnable shard: either the model is globally quiescent (returns 0 —
// nothing pending inside the limit), or every frontier is frozen because
// the processes that would advance them are themselves waiting (a
// conservative stall, not a model deadlock). The globally earliest
// pending event is always safe to process: any shard can only act at its
// kernel date or later, so nothing can ever be delivered with an earlier
// insertion date.
func (c *Coordinator) fallback(limit sim.Time) int {
	tmin := sim.TimeMax
	for _, s := range c.shards {
		if at, ok := s.k.NextEventAt(); ok && at < tmin {
			tmin = at
		}
	}
	if tmin == sim.TimeMax || (limit >= 0 && tmin > limit) {
		return 0
	}
	work := 0
	for _, s := range c.shards {
		if at, ok := s.k.NextEventAt(); ok && at <= tmin {
			s.horizon = tmin + 1 // exclusive, like the frontier bound
			s.run = true
			work++
		}
	}
	return work
}

// flushBridges flushes every bridge — the rendezvous force-flush that
// delivers anything a DeferFlush injection withheld.
func (c *Coordinator) flushBridges() {
	for _, b := range c.bridges {
		if b.Flush() {
			c.ctr.flushes.Add(1)
		}
	}
}

// stepLimit maps an exclusive horizon onto Kernel.Step's inclusive limit
// (and the unbounded horizon onto the run-forever sentinel).
func stepLimit(h sim.Time) sim.Time {
	if h == sim.TimeMax {
		return sim.RunForever
	}
	return h - 1
}

// Blocked reports, per shard, the thread processes that are neither
// terminated nor runnable after Run returned. Shards whose names collide
// are keyed by registration index. A non-empty result after a Run with
// limit == sim.RunForever means the model deadlocked (or parks processes
// by design, like idle accelerators waiting for their next job).
func (c *Coordinator) Blocked() map[string][]string {
	out := make(map[string][]string)
	for i, s := range c.shards {
		if b := s.k.Blocked(); len(b) > 0 {
			key := s.k.Name()
			if _, dup := out[key]; dup {
				key = fmt.Sprintf("%s#%d", key, i)
			}
			out[key] = b
		}
	}
	return out
}

// Shutdown force-terminates every shard's live thread processes. Call it
// when discarding the coordinator, exactly like Kernel.Shutdown.
func (c *Coordinator) Shutdown() {
	for _, s := range c.shards {
		s.k.Shutdown()
	}
}
