// Package fifo implements regular bounded FIFO channels with sc_fifo
// semantics, plus SyncFIFO, the reference decoupling-safe wrapper that
// synchronizes the caller on every access (paper §II-B).
//
// A regular FIFO is correct for non-decoupled processes: every access
// happens at the global date. Under temporal decoupling it silently uses
// decoupled local dates as if they were global, corrupting the timing
// (paper Fig. 3); SyncFIFO restores correctness at the cost of one context
// switch per access (the paper's TDless baseline). The Smart FIFO in
// package core removes those context switches without changing the timing.
package fifo

import (
	"fmt"

	"repro/internal/sim"
)

// Reader is the read side of a FIFO channel.
type Reader[T any] interface {
	// Read blocks the calling thread process until a value is available.
	Read() T
	// TryRead pops a value without blocking; ok is false if none is
	// available. Callable from method processes.
	TryRead() (v T, ok bool)
	// IsEmpty reports whether a Read would block, from the caller's
	// point of view.
	IsEmpty() bool
	// NotEmpty is notified when the channel becomes readable.
	NotEmpty() *sim.Event
	// ReadBurst fills dst in order, advancing the caller's local clock
	// by per between consecutive words; it blocks like Read (burst
	// contract, see ScalarReadBurst).
	ReadBurst(dst []T, per sim.Time)
	// TryReadBurst pops up to len(dst) available words without blocking
	// and returns the number read (see ScalarTryReadBurst).
	TryReadBurst(dst []T, per sim.Time) int
}

// Writer is the write side of a FIFO channel.
type Writer[T any] interface {
	// Write blocks the calling thread process until a cell is free.
	Write(v T)
	// TryWrite pushes a value without blocking; it reports false if the
	// channel is full. Callable from method processes.
	TryWrite(v T) bool
	// IsFull reports whether a Write would block, from the caller's
	// point of view.
	IsFull() bool
	// NotFull is notified when the channel becomes writable.
	NotFull() *sim.Event
	// WriteBurst writes vals in order, advancing the caller's local
	// clock by per between consecutive words; it blocks like Write
	// (burst contract, see ScalarWriteBurst).
	WriteBurst(vals []T, per sim.Time)
	// TryWriteBurst writes up to len(vals) acceptable words without
	// blocking and returns the number written (see ScalarTryWriteBurst).
	TryWriteBurst(vals []T, per sim.Time) int
}

// Monitor is the low-rate observation interface (paper Fig. 4): embedded
// software reads FIFO filling levels for debug and dynamic performance
// tuning.
type Monitor interface {
	// Size returns the number of occupied cells as observable at the
	// caller's (synchronized) date.
	Size() int
	// Depth returns the capacity in cells.
	Depth() int
}

// ReadEnd is the handle a consuming module holds: the read side plus
// monitoring. A sharded FIFO's reader endpoint implements ReadEnd but not
// Writer — the write side lives on another kernel.
type ReadEnd[T any] interface {
	Reader[T]
	Monitor
	Name() string
}

// WriteEnd is the producing module's handle: the write side plus
// monitoring.
type WriteEnd[T any] interface {
	Writer[T]
	Monitor
	Name() string
}

// Channel is a full-duplex handle on a FIFO: both sides plus monitoring.
type Channel[T any] interface {
	Reader[T]
	Writer[T]
	Monitor
	Name() string
}

// FIFO is a bounded FIFO channel with sc_fifo semantics: blocking and
// non-blocking access, delta-cycle event notification, no timestamps. It is
// only timing-accurate when every accessing process is synchronized.
type FIFO[T any] struct {
	k    *sim.Kernel
	name string

	buf  []T
	head int // index of the oldest element
	n    int // number of occupied cells

	notEmpty *sim.Event
	notFull  *sim.Event
}

// New creates a FIFO of the given depth (cells), which must be positive.
func New[T any](k *sim.Kernel, name string, depth int) *FIFO[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("fifo: %s: non-positive depth %d", name, depth))
	}
	return &FIFO[T]{
		k:        k,
		name:     name,
		buf:      make([]T, depth),
		notEmpty: sim.NewEvent(k, name+".not_empty"),
		notFull:  sim.NewEvent(k, name+".not_full"),
	}
}

// Name returns the channel name.
func (f *FIFO[T]) Name() string { return f.name }

// Depth returns the capacity in cells.
func (f *FIFO[T]) Depth() int { return len(f.buf) }

// Size returns the number of occupied cells.
func (f *FIFO[T]) Size() int { return f.n }

// IsEmpty reports whether the FIFO holds no data.
func (f *FIFO[T]) IsEmpty() bool { return f.n == 0 }

// IsFull reports whether every cell is occupied.
func (f *FIFO[T]) IsFull() bool { return f.n == len(f.buf) }

// NotEmpty is notified (delta) whenever data is written.
func (f *FIFO[T]) NotEmpty() *sim.Event { return f.notEmpty }

// NotFull is notified (delta) whenever data is read.
func (f *FIFO[T]) NotFull() *sim.Event { return f.notFull }

func (f *FIFO[T]) caller(op string) *sim.Process {
	p := f.k.Current()
	if p == nil {
		panic(fmt.Sprintf("fifo: %s: %s outside a process", f.name, op))
	}
	return p
}

func (f *FIFO[T]) push(v T) {
	f.buf[(f.head+f.n)%len(f.buf)] = v
	f.n++
	f.notEmpty.NotifyDelta()
}

func (f *FIFO[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	f.notFull.NotifyDelta()
	return v
}

// Write appends v, blocking the calling thread while the FIFO is full.
func (f *FIFO[T]) Write(v T) {
	p := f.caller("Write")
	for f.n == len(f.buf) {
		p.WaitEvent(f.notFull)
	}
	f.push(v)
}

// TryWrite appends v if a cell is free and reports whether it did.
func (f *FIFO[T]) TryWrite(v T) bool {
	if f.n == len(f.buf) {
		return false
	}
	f.push(v)
	return true
}

// Read pops the oldest value, blocking the calling thread while the FIFO
// is empty.
func (f *FIFO[T]) Read() T {
	p := f.caller("Read")
	for f.n == 0 {
		p.WaitEvent(f.notEmpty)
	}
	return f.pop()
}

// TryRead pops the oldest value if any and reports whether it did.
func (f *FIFO[T]) TryRead() (T, bool) {
	if f.n == 0 {
		var zero T
		return zero, false
	}
	return f.pop(), true
}

// Peek returns the oldest value without popping it. Router models use it
// to route head flits before committing to a pop.
func (f *FIFO[T]) Peek() (T, bool) {
	if f.n == 0 {
		var zero T
		return zero, false
	}
	return f.buf[f.head], true
}

var _ Channel[int] = (*FIFO[int])(nil)
