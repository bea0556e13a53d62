package sim

import "fmt"

// killSentinel is the panic value used to unwind a killed thread goroutine.
type killPanic struct{}

// Process is a simulation process: either a thread (SC_THREAD analogue, a
// goroutine that may block in Wait/WaitEvent/Sync) or a method (SC_METHOD
// analogue, a run-to-completion callback that must not block).
//
// Every process carries a local-time offset for temporal decoupling
// (paper §II): LocalTime() == kernel.Now() + offset. Inc advances the
// offset cheaply; Sync (threads only) discharges it with a real Wait. For
// methods the offset is reset at each activation and is consumed by delayed
// event notifications (paper §IV-C network interfaces).
type Process struct {
	k        *Kernel
	name     string
	id       int
	isMethod bool
	body     func(*Process)

	// Thread coroutine handoff. The scheduler sends on resume and then
	// receives on yield; the goroutine does the converse.
	resume   chan struct{}
	yield    chan struct{}
	killed   bool
	panicVal any

	terminated bool
	queued     bool // in the runnable queue

	// Method sensitivity.
	static   []*Event
	dynArmed bool   // next activation overridden by NextTrigger
	trigGen  uint64 // invalidates stale dynamic triggers

	// offset is the temporal-decoupling local time offset.
	offset Time

	// waitSeq numbers thread wait rounds; event waiter entries carry the
	// sequence they were registered under, so entries from a completed
	// round (e.g. the losing events of a WaitAny) are dropped when their
	// event later fires.
	waitSeq uint64
	// wokenBy records which event ended the current wait round.
	wokenBy *Event

	// waitingOn is the event list this thread is parked on, for cleanup.
	waitingOn *Event

	// wake is the process's single reusable timed-queue entry: a thread
	// has at most one live wakeup (Wait, Sync or a WaitEventTimeout
	// timeout), a method at most one live timed trigger, so every timed
	// activation reuses this embedded entry — zero allocation (see
	// timedq.go). A stale queued entry (a lost timeout, a superseded
	// trigger) is simply rescheduled in place.
	wake timedEntry
}

// Thread registers a thread process. fn runs in its own goroutine but the
// kernel guarantees only one process executes at a time. The process is
// runnable at time zero.
func (k *Kernel) Thread(name string, fn func(p *Process)) *Process {
	p := k.newProcess(name, fn, false)
	k.runnableAdd(p)
	go p.threadMain()
	return p
}

// Method registers a method process with an optional static sensitivity
// list. Method bodies run to completion on the scheduler's stack: no Wait,
// WaitEvent or Sync. By default the method is activated once at time zero
// (like SystemC without dont_initialize); use MethodNoInit to suppress
// that.
func (k *Kernel) Method(name string, fn func(p *Process), sensitive ...*Event) *Process {
	p := k.methodNoRun(name, fn, sensitive...)
	k.runnableAdd(p)
	return p
}

// MethodNoInit is Method without the initial time-zero activation.
func (k *Kernel) MethodNoInit(name string, fn func(p *Process), sensitive ...*Event) *Process {
	return k.methodNoRun(name, fn, sensitive...)
}

func (k *Kernel) methodNoRun(name string, fn func(p *Process), sensitive ...*Event) *Process {
	p := k.newProcess(name, fn, true)
	for _, e := range sensitive {
		e.addStatic(p)
	}
	p.static = append(p.static, sensitive...)
	return p
}

func (k *Kernel) newProcess(name string, fn func(p *Process), isMethod bool) *Process {
	k.nProcID++
	p := &Process{
		k:        k,
		name:     name,
		id:       k.nProcID,
		isMethod: isMethod,
		body:     fn,
	}
	if !isMethod {
		p.resume = make(chan struct{})
		p.yield = make(chan struct{})
	}
	p.wake.proc = p
	p.wake.index = -1
	k.procs = append(k.procs, p)
	return p
}

func (p *Process) threadMain() {
	<-p.resume
	if p.killed {
		p.terminated = true
		p.yield <- struct{}{}
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killPanic); !isKill {
				// Surface user panics to the Run caller.
				p.panicVal = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
			}
		}
		p.terminated = true
		p.yield <- struct{}{}
	}()
	p.body(p)
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// ID returns the process's unique (per kernel) identifier.
func (p *Process) ID() int { return p.id }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.k }

// IsMethod reports whether p is a run-to-completion method process.
func (p *Process) IsMethod() bool { return p.isMethod }

// Terminated reports whether the process body has returned.
func (p *Process) Terminated() bool { return p.terminated }

// park hands control back to the scheduler and blocks until redispatched.
// Waking invalidates the wait round: entries this round registered on
// events that did not fire become stale.
func (p *Process) park() {
	p.yield <- struct{}{}
	<-p.resume
	p.waitSeq++
	if p.killed {
		panic(killPanic{})
	}
}

func (p *Process) checkThreadContext(op string) {
	if p.isMethod {
		panic(fmt.Sprintf("sim: %s called from method process %q", op, p.name))
	}
	if p.k.current != p {
		panic(fmt.Sprintf("sim: %s called on %q from outside its own context", op, p.name))
	}
}

// Wait suspends the thread for duration d of simulated time (one context
// switch). Wait(0) yields until the next delta cycle.
func (p *Process) Wait(d Time) {
	p.checkThreadContext("Wait")
	p.k.scheduleWake(p, d)
	p.park()
}

// WaitEvent suspends the thread until e is notified (one context switch).
func (p *Process) WaitEvent(e *Event) {
	p.checkThreadContext("WaitEvent")
	e.addWaiter(p)
	p.waitingOn = e
	p.park()
	p.waitingOn = nil
}

// WaitAny suspends the thread until any of the events is notified and
// returns the one that woke it (the earliest if several fire in the same
// instant). SystemC's wait(e1 | e2 | ...).
func (p *Process) WaitAny(events ...*Event) *Event {
	p.checkThreadContext("WaitAny")
	if len(events) == 0 {
		panic(fmt.Sprintf("sim: %s: WaitAny with no events", p.name))
	}
	for _, e := range events {
		e.addWaiter(p)
	}
	p.wokenBy = nil
	p.park()
	return p.wokenBy
}

// WaitEventTimeout suspends the thread until e is notified or d elapses,
// whichever comes first; it reports whether the event fired.
// SystemC's wait(d, e).
func (p *Process) WaitEventTimeout(e *Event, d Time) bool {
	p.checkThreadContext("WaitEventTimeout")
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: WaitEventTimeout with negative duration %v", p.name, d))
	}
	e.addWaiter(p)
	k := p.k
	p.wake.evWait = true
	p.wake.waitGen = p.waitSeq
	k.scheduleEntry(&p.wake, k.now+d)
	p.wokenBy = nil
	p.park()
	if p.wokenBy == e {
		k.timed.remove(&p.wake) // the timeout lost the race
		return true
	}
	return false
}

// Inc advances the process's local time by d without a context switch (the
// paper's inc). Valid for threads and methods.
func (p *Process) Inc(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: Inc with negative duration %v", p.name, d))
	}
	p.offset += d
}

// LocalTime returns the process's local date (the paper's
// local_time_stamp): the global date plus the decoupling offset.
func (p *Process) LocalTime() Time { return p.k.now + p.offset }

// LocalOffset returns the decoupling offset (local date minus global date).
func (p *Process) LocalOffset() Time { return p.offset }

// AdvanceLocalTo raises the local date to t if t is in the local future.
// The Smart FIFO uses this to lift a reader to a cell's insertion date or a
// writer to a cell's freeing date.
func (p *Process) AdvanceLocalTo(t Time) {
	if t > p.LocalTime() {
		p.offset = t - p.k.now
	}
}

// SetLocalDate sets the local date to exactly t, clamped at the global
// date (a local date cannot be in the global past). Unlike AdvanceLocalTo
// it can lower the date; it exists for channels that park a decoupled
// process and must restore its absolute local date afterwards — the
// decoupling offset is relative to a global date that moved during the
// park.
func (p *Process) SetLocalDate(t Time) {
	if t < p.k.now {
		t = p.k.now
	}
	p.offset = t - p.k.now
}

// Synchronized reports whether the local date equals the global date.
func (p *Process) Synchronized() bool { return p.offset == 0 }

// Sync discharges the decoupling offset: it waits until the global date
// catches up with the local date (one context switch if the offset was
// non-zero). Threads only.
func (p *Process) Sync() {
	p.checkThreadContext("Sync")
	if p.offset == 0 {
		return
	}
	d := p.offset
	p.offset = 0
	p.k.scheduleWake(p, d)
	p.park()
}

// NextTrigger overrides the method's sensitivity for its next activation:
// it will be activated after duration d (next delta cycle if d == 0),
// ignoring its static sensitivity until then. Methods only, during their
// own activation.
func (p *Process) NextTrigger(d Time) {
	p.checkMethodContext("NextTrigger")
	if d < 0 {
		panic(fmt.Sprintf("sim: %s: NextTrigger with negative duration %v", p.name, d))
	}
	p.trigGen++
	p.dynArmed = true
	if d == 0 {
		p.k.deltaProcs = append(p.k.deltaProcs, procRef{p: p, gen: p.trigGen})
		return
	}
	k := p.k
	p.wake.evWait = false
	p.wake.methodGen = p.trigGen
	k.scheduleEntry(&p.wake, k.now+d)
}

// NextTriggerEvent overrides the method's sensitivity for its next
// activation: it will be activated by the next notification of e only.
func (p *Process) NextTriggerEvent(e *Event) {
	p.checkMethodContext("NextTriggerEvent")
	p.trigGen++
	p.dynArmed = true
	e.addDynMethod(p, p.trigGen)
}

func (p *Process) checkMethodContext(op string) {
	if !p.isMethod {
		panic(fmt.Sprintf("sim: %s called from thread process %q", op, p.name))
	}
	if p.k.current != p {
		panic(fmt.Sprintf("sim: %s called on %q from outside its own context", op, p.name))
	}
}
