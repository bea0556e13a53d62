package core

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// Arbiter serializes several producer processes onto a single Smart FIFO
// writer side. §III requires each Smart FIFO side to be driven by one
// process with non-decreasing local dates; when a design has several
// producers, "an arbiter must be added". The arbiter is itself modeled the
// way the paper models arbitration-heavy hardware (§III-B, §IV-C): a
// run-to-completion method process — no context to store — that uses Inc
// for its per-grant latency.
//
// Producers write into per-client Smart FIFO request queues (so producers
// may be temporally decoupled); the arbiter method drains them round-robin
// into the output channel, spending Grant of local time per forwarded
// word.
type Arbiter[T any] struct {
	k    *sim.Kernel
	name string
	out  fifo.Writer[T]
	in   []*SmartFIFO[T]

	grant     sim.Time
	next      int      // round-robin scan start
	busyUntil sim.Time // date the arbiter finishes its last grant

	proc     *sim.Process
	forwards uint64
}

// NewArbiter creates an arbiter with nIn request queues of the given depth
// in front of out. grant is the arbitration latency per forwarded word.
func NewArbiter[T any](k *sim.Kernel, name string, out fifo.Writer[T], nIn, depth int, grant sim.Time) *Arbiter[T] {
	if nIn <= 0 {
		panic(fmt.Sprintf("core: arbiter %s: need at least one input", name))
	}
	if grant < 0 {
		panic(fmt.Sprintf("core: arbiter %s: negative grant latency", name))
	}
	a := &Arbiter[T]{k: k, name: name, out: out, grant: grant}
	events := make([]*sim.Event, 0, nIn+1)
	for i := 0; i < nIn; i++ {
		in := NewSmart[T](k, fmt.Sprintf("%s.in%d", name, i), depth)
		a.in = append(a.in, in)
		events = append(events, in.NotEmpty())
	}
	events = append(events, out.NotFull())
	a.proc = k.MethodNoInit(name, a.step, events...)
	return a
}

// In returns the writer side of request queue i; hand it to producer i.
func (a *Arbiter[T]) In(i int) *SmartFIFO[T] { return a.in[i] }

// Forwards returns the number of words forwarded so far.
func (a *Arbiter[T]) Forwards() uint64 { return a.forwards }

// step is the arbiter method body: starting from the round-robin pointer,
// forward every externally available word until the output back-pressures
// or all request queues are (externally) empty. Static sensitivity on the
// request queues' NotEmpty and the output's NotFull re-activates it.
func (a *Arbiter[T]) step(p *sim.Process) {
	// Resume at the date the previous grants finished: the arbiter is a
	// single resource.
	p.AdvanceLocalTo(a.busyUntil)
	for scanned := 0; scanned < len(a.in); {
		i := (a.next + scanned) % len(a.in)
		in := a.in[i]
		if in.IsEmpty() {
			scanned++
			continue
		}
		if a.out.IsFull() {
			// Re-activated by out.NotFull (static sensitivity).
			break
		}
		v, _ := in.TryRead()
		p.Inc(a.grant)
		a.out.TryWrite(v)
		a.forwards++
		a.busyUntil = p.LocalTime()
		a.next = (i + 1) % len(a.in)
		scanned = 0
	}
}
