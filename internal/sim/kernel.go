package sim

import "fmt"

// Stats aggregates kernel activity counters. The Fig. 5 reproduction reports
// ContextSwitches alongside wall time: the paper's whole argument is that
// simulation speed is dominated by the number of context switches, which the
// Smart FIFO removes.
type Stats struct {
	// ContextSwitches counts thread process dispatches. Each dispatch is a
	// full coroutine handoff (two channel operations and a goroutine
	// switch), the Go analogue of a SystemC thread context switch.
	ContextSwitches uint64
	// MethodActivations counts run-to-completion method dispatches. These
	// are plain function calls: the cheap alternative the paper uses for
	// NoC routers.
	MethodActivations uint64
	// DeltaCycles counts evaluate phases.
	DeltaCycles uint64
	// TimedSteps counts time advances.
	TimedSteps uint64
	// Notifications counts event notifications of any kind. Elided
	// notifications (NotifyAtReplace on an event with no subscribers) are
	// not counted until they materialize.
	Notifications uint64
}

// Kernel is a discrete-event simulator instance. Create one with NewKernel,
// register processes with Thread and Method, then call Run.
//
// All kernel and model state is owned by the single running process (or the
// caller of Run, between dispatches); there is no concurrent access and
// hence no locking. The coroutine handoff channels provide the necessary
// happens-before edges. Distinct kernels share nothing and may run
// concurrently: a partitioned simulation drives one kernel per shard
// through Step under a conservative coordinator (internal/par), with each
// shard's clock advancing independently between rendezvous.
//
// The kernel's hot paths — Wait, Sync, delayed notification, the
// evaluate/delta/timed loop — are allocation-free in steady state: timed
// entries are embedded in their owning Process or Event (see timedq.go) and
// every kernel queue recycles its backing array.
type Kernel struct {
	name string
	now  Time

	procs   []*Process
	nProcID int

	// runnable is the evaluate-phase FIFO queue. head indexes the next
	// process to dispatch; the slice is compacted when drained.
	runnable []*Process
	head     int

	// deltaProcs and deltaEvents are activated at the next delta cycle.
	// The spare slices recycle the backing arrays across promotions so the
	// steady state never allocates.
	deltaProcs       []procRef
	deltaEvents      []*Event
	spareDeltaProcs  []procRef
	spareDeltaEvents []*Event

	// deltaPromos counts delta-notification (promotion) phases. Together
	// with now it identifies the boundary at which a pending delta
	// notification fires; Event elision uses it to expire recorded
	// notifications exactly where the real ones would have been lost.
	deltaPromos uint64

	timed    timedQueue
	timedSeq uint64

	current *Process
	running bool

	// is holds the cross-goroutine interrupt/beacon state (see
	// interrupt.go); everything above is owned by the running process or
	// the Run caller.
	is interruptState

	stats Stats

	// msink, when non-nil, receives deltas of stats at poll safe points
	// (metrics.go); mpub is the last published snapshot. Captured at
	// construction, so EnableMetrics never races a running kernel.
	msink *MetricSink
	mpub  Stats
}

// NewKernel returns an empty kernel.
func NewKernel(name string) *Kernel {
	return &Kernel{name: name, msink: defaultSink.Load()}
}

// Name returns the kernel's name.
func (k *Kernel) Name() string { return k.name }

// Now returns the current global simulated time (sc_time_stamp in the
// paper).
func (k *Kernel) Now() Time { return k.now }

// Current returns the process being dispatched, or nil between dispatches.
// Channels use this to attribute accesses to a process and read its local
// date, mirroring the paper's map from process handles to local dates.
func (k *Kernel) Current() *Process { return k.current }

// Stats returns a copy of the kernel activity counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Processes returns all registered processes in creation order.
func (k *Kernel) Processes() []*Process { return k.procs }

// runnableAdd queues p for the current evaluate phase; it reports whether
// p was actually added (false if already queued or terminated).
func (k *Kernel) runnableAdd(p *Process) bool {
	if p.terminated || p.queued {
		return false
	}
	p.queued = true
	k.runnable = append(k.runnable, p)
	return true
}

func (k *Kernel) runnablePop() *Process {
	if k.head >= len(k.runnable) {
		return nil
	}
	p := k.runnable[k.head]
	k.head++
	if k.head == len(k.runnable) {
		k.runnable = k.runnable[:0]
		k.head = 0
	}
	return p
}

// procRef is a queued process activation. For method processes, gen must
// still match the method's trigger generation when the activation is
// promoted, so that re-armed or already-fired dynamic triggers are
// dropped. For thread processes registered on events (evWait), gen is the
// thread's wait sequence: entries left on the losing events of a WaitAny
// or a timed-out WaitEventTimeout become stale once the thread wakes.
type procRef struct {
	p      *Process
	gen    uint64
	evWait bool
}

// valid reports whether the queued activation is still live.
func (r procRef) valid() bool {
	if r.p.isMethod {
		return r.p.dynArmed && r.gen == r.p.trigGen
	}
	return !r.evWait || r.gen == r.p.waitSeq
}

// scheduleWake arranges for thread p to become runnable after d. d == 0
// means the next delta cycle. The timed case reuses the thread's embedded
// wake entry: no allocation.
func (k *Kernel) scheduleWake(p *Process, d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: Wait with negative duration %v", p.name, d))
	}
	if d == 0 {
		k.deltaProcs = append(k.deltaProcs, procRef{p: p})
		return
	}
	p.wake.evWait = false
	k.scheduleEntry(&p.wake, k.now+d)
}

// dispatch runs one process for one activation.
func (k *Kernel) dispatch(p *Process) {
	p.queued = false
	if p.terminated {
		return
	}
	k.current = p
	if p.isMethod {
		k.stats.MethodActivations++
		p.dynArmed = false
		p.trigGen++
		p.offset = 0
		p.body(p)
	} else {
		k.stats.ContextSwitches++
		p.resume <- struct{}{}
		<-p.yield
		if p.panicVal != nil {
			v := p.panicVal
			p.panicVal = nil
			k.current = nil
			panic(v)
		}
	}
	k.current = nil
}

// RunForever is the sentinel limit for Run: simulate until no activity
// remains.
const RunForever Time = -1

// Run advances the simulation. With limit == RunForever it runs until no
// runnable process, delta notification or timed notification remains (model
// quiescence, which includes deadlock: see Blocked). With limit >= 0 it
// stops once the next timed activity lies strictly beyond limit, leaving Now
// at limit. Run may be called repeatedly to resume.
func (k *Kernel) Run(limit Time) {
	k.Step(limit)
}

// NextEventAt reports the date of the kernel's earliest pending activity:
// Now if a process is runnable or a delta notification is pending, else the
// date of the earliest timed notification. ok is false when the kernel is
// quiescent (nothing would run). Shard coordinators use it to decide
// whether a kernel has work inside a time horizon without dispatching
// anything.
func (k *Kernel) NextEventAt() (at Time, ok bool) {
	if k.head < len(k.runnable) || len(k.deltaProcs) > 0 || len(k.deltaEvents) > 0 {
		return k.now, true
	}
	if te := k.timed.peek(); te != nil {
		return te.at, true
	}
	return 0, false
}

// Step is the resumable core of the evaluate/delta/timed loop: it advances
// the simulation exactly like Run(limit) — processing every runnable
// process, delta notification and timed notification dated at or before
// limit (no bound when limit == RunForever) — and reports whether any
// activity was dispatched. Each kernel is single-threaded, but distinct
// kernels may Step concurrently; the shard coordinator (internal/par) calls
// Step once per shard advance with the shard's conservative horizon as the
// limit.
//
// Step polls the interrupt flag (see Interrupt) at safe points — phase
// boundaries and every few dozen dispatches — and returns early when it
// is latched, leaving the kernel consistent and resumable.
func (k *Kernel) Step(limit Time) bool {
	if k.running {
		panic("sim: kernel already running (re-entrant Run or Step)")
	}
	k.running = true
	defer func() {
		k.running = false
		// Flush the counter deltas accumulated since the last poll, so
		// a returned Step leaves the shared metrics exact.
		if k.msink != nil {
			k.publishMetrics()
		}
	}()
	did := false
	for {
		if k.poll() {
			return did
		}
		// Evaluate phase: drain the runnable queue. Immediate
		// notifications extend the queue within the same phase.
		if k.head < len(k.runnable) {
			k.stats.DeltaCycles++
			did = true
			for {
				p := k.runnablePop()
				if p == nil {
					break
				}
				k.dispatch(p)
				if k.pollDispatch() {
					return did
				}
			}
		}
		// Delta notification phase.
		if len(k.deltaProcs) > 0 || len(k.deltaEvents) > 0 {
			k.deltaPromos++
			procs, evs := k.deltaProcs, k.deltaEvents
			k.deltaProcs = k.spareDeltaProcs[:0]
			k.deltaEvents = k.spareDeltaEvents[:0]
			for _, r := range procs {
				if r.valid() {
					k.runnableAdd(r.p)
				}
			}
			for _, e := range evs {
				if e.deltaPending {
					e.deltaPending = false
					did = true
					e.fire()
				}
			}
			k.spareDeltaProcs = procs[:0]
			k.spareDeltaEvents = evs[:0]
			continue
		}
		// Timed notification phase: advance to the earliest date.
		te := k.timed.peek()
		if te == nil {
			return did
		}
		if limit >= 0 && te.at > limit {
			if k.now < limit {
				k.now = limit
			}
			return did
		}
		k.now = te.at
		k.stats.TimedSteps++
		did = true
		for {
			te := k.timed.peek()
			if te == nil || te.at != k.now {
				break
			}
			k.timed.pop()
			if te.proc != nil {
				if te.proc.isMethod {
					if (procRef{p: te.proc, gen: te.methodGen}).valid() {
						k.runnableAdd(te.proc)
					}
				} else if !te.evWait || te.waitGen == te.proc.waitSeq {
					k.runnableAdd(te.proc)
				}
			} else {
				ev := te.ev
				ev.timedPending = false
				ev.fire()
			}
		}
	}
}

// Blocked returns the names of live thread processes that are neither
// terminated nor runnable — after Run(RunForever) returns, these are
// deadlocked (e.g. blocked forever on an empty FIFO).
func (k *Kernel) Blocked() []string {
	var out []string
	for _, p := range k.procs {
		if !p.isMethod && !p.terminated && !p.queued {
			out = append(out, p.name)
		}
	}
	return out
}

// Shutdown force-terminates every live thread process so their goroutines
// exit. Call it when discarding a kernel whose model did not run to
// completion (benchmarks and tests create many kernels; without Shutdown,
// parked goroutines would leak). The kernel must not be running.
func (k *Kernel) Shutdown() {
	if k.running {
		panic("sim: Shutdown called while running")
	}
	for _, p := range k.procs {
		if p.isMethod || p.terminated {
			continue
		}
		p.killed = true
		p.resume <- struct{}{}
		<-p.yield
	}
}
