// Package core implements the paper's contribution: the Smart FIFO
// (Helmstetter et al., DATE 2013, §III), a bounded FIFO channel that makes
// temporal decoupling work for FIFO-based communications with zero timing
// error and no user-chosen quantum.
//
// # Idea
//
// A regular FIFO under temporal decoupling either corrupts timing (no
// synchronization, Fig. 3) or costs one context switch per access
// (sync-on-every-access, the TDless baseline). The Smart FIFO instead
// timestamps every cell: each cell records its last data-insertion date
// and its last freeing date. A blocking read advances the *reader's local
// clock* to the insertion date of the data it pops instead of context
// switching; a blocking write symmetrically advances the *writer's local
// clock* to the freeing date of the cell it fills. Context switches happen
// only when the FIFO is internally full or empty.
//
// # Interfaces (paper Fig. 4)
//
// The Smart FIFO exposes three interfaces:
//
//   - writer side: Write, TryWrite, IsFull, NotFull — high-rate, requires
//     non-decreasing local dates across accesses;
//   - reader side: Read, TryRead, IsEmpty, NotEmpty — ditto;
//   - monitor: Size, Depth — low-rate, any synchronized process.
//
// Each side must be accessed by a single process (time must go forward on
// each side independently); use Arbiter when several processes share a
// side. The access discipline is checked at run time.
package core

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// Each hardware FIFO slot carries the two timestamps of §III-A — the last
// data-insertion date and the last freeing date — stored struct-of-arrays
// in a ring (ring.go). Together they let the channel answer, for any query
// date, whether the *real* FIFO cell was occupied at that date (see Size),
// and they are what the bulk transfer paths annotate as arithmetic runs.
// The side logic that reads and stamps them lives in half.go.

// Stats counts Smart FIFO activity, for the Fig. 5 analysis.
type Stats struct {
	// Writes and Reads count completed accesses.
	Writes, Reads uint64
	// WriterBlocks and ReaderBlocks count accesses that had to context
	// switch because the FIFO was internally full (resp. empty).
	WriterBlocks, ReaderBlocks uint64
	// WriterAdvances and ReaderAdvances count accesses whose only cost
	// was a local-clock advance — the context switches the Smart FIFO
	// saved relative to a regular FIFO under the same timing.
	WriterAdvances, ReaderAdvances uint64
}

// SmartFIFO is a bounded FIFO channel for temporally decoupled models. It
// contains as many cells as the hardware FIFO it models. Writes may block
// (hardware FIFOs are bounded), so both directions carry timestamps. It is
// a writer half and a reader half (half.go) over one shared ring: a write
// stores the payload and runs the reader half's "cells arrived" epilogue,
// a read runs the writer half's "cells freed" epilogue.
type SmartFIFO[T any] struct {
	cells ring[T]
	w     writeHalf[T]
	r     readHalf[T]
}

// BlockPolicy selects how a blocking access behaves when the channel is
// internally full (write) or empty (read). This is the §III-A
// design-choice ablation, and it shows the paper's choice is load-bearing:
//
// With SyncThenWait (the paper's step 1), a process synchronizes before
// parking, so the global date catches up with it first. That bounds how
// far the channel's *internal* state can run ahead of the global date: a
// cell can be freed-and-refilled at most one generation beyond what a
// synchronized observer has seen, which is exactly the precondition of
// the one-generation timestamps that IsEmpty/IsFull/Size interpret
// (§III-B/C store only the *last* insertion and freeing date per cell).
//
// With WaitOnly, a blocked process keeps its decoupling offset. For pure
// Kahn usage (blocking Read/Write only) the dates stay exact — the data
// path never needs more than the latest stamps. But an entire stream can
// then execute internally at one global instant, cycling each cell
// through many generations, and the monitor/non-blocking interfaces lose
// history they cannot reconstruct: Size and the delayed events become
// wrong (TestWaitOnlyBreaksMonitor demonstrates it). WaitOnly exists for
// this ablation; models must use SyncThenWait.
type BlockPolicy int

const (
	// SyncThenWait is the paper's step 1: "synchronize the writer
	// process and wait until a cell is available".
	SyncThenWait BlockPolicy = iota
	// WaitOnly parks the decoupled process directly on the internal
	// event, keeping its local offset. Exact for Kahn-only traffic;
	// unsound for the monitor and non-blocking interfaces. Ablation
	// only.
	WaitOnly
)

// String names the policy.
func (b BlockPolicy) String() string {
	if b == WaitOnly {
		return "wait-only"
	}
	return "sync-then-wait"
}

// SetBlockPolicy selects the blocking behavior (default SyncThenWait).
func (f *SmartFIFO[T]) SetBlockPolicy(p BlockPolicy) { f.w.policy, f.r.policy = p, p }

// NewSmart creates a Smart FIFO with the given depth (cells), which must be
// positive.
func NewSmart[T any](k *sim.Kernel, name string, depth int) *SmartFIFO[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("core: %s: non-positive depth %d", name, depth))
	}
	f := &SmartFIFO[T]{cells: newRing[T](depth)}
	// Internal blocking events: a parked (synchronized) writer waits on
	// cell_freed, a parked reader on cell_filled. The external events of
	// the non-blocking interface (§III-B) are notified at the date the
	// external state actually changes (insertion/freeing date), not at the
	// internal-change date.
	cellFreed := sim.NewEvent(k, name+".cell_freed")
	cellFilled := sim.NewEvent(k, name+".cell_filled")
	notEmpty := sim.NewEvent(k, name+".not_empty")
	notFull := sim.NewEvent(k, name+".not_full")
	f.w = writeHalf[T]{writeSide{newHalf(k, name, "write", &f.cells.stamps, cellFreed, notFull)}, f}
	f.r = readHalf[T]{readSide{newHalf(k, name, "read", &f.cells.stamps, cellFilled, notEmpty)}, f.cells.data, f}
	return f
}

// Name returns the channel name.
func (f *SmartFIFO[T]) Name() string { return f.w.name }

// Depth returns the capacity in cells.
func (f *SmartFIFO[T]) Depth() int { return f.cells.depth() }

// Kernel returns the owning kernel.
func (f *SmartFIFO[T]) Kernel() *sim.Kernel { return f.w.k }

// Stats returns a copy of the activity counters.
func (f *SmartFIFO[T]) Stats() Stats { return sideStats(&f.w.half, &f.r.half) }

// NotEmpty is the external readable-event (§III-B): it is notified at the
// date the FIFO becomes externally non-empty, i.e. at the *insertion date*
// of the first available datum, not at the (possibly earlier) global date
// of the internal state change.
func (f *SmartFIFO[T]) NotEmpty() *sim.Event { return f.r.ext }

// NotFull is the external writable-event, notified at the freeing date of
// the first available cell.
func (f *SmartFIFO[T]) NotFull() *sim.Event { return f.w.ext }

// Write appends v (§III-A). If every cell is internally busy the calling
// thread synchronizes and parks (one context switch). Otherwise, if the
// first free cell's freeing date is in the caller's local future, the
// caller's local clock advances to it — the real FIFO had no free cell
// before that date — and the write costs no context switch at all.
func (f *SmartFIFO[T]) Write(v T) {
	q := f.w.reserve(f.w.caller("Write"))
	f.cells.data[q] = v
	f.r.arrived(1)
	f.w.wrote(1)
}

// Read pops the oldest value (§III-A), symmetric to Write: park only when
// internally empty; otherwise advance the reader's local clock to the
// datum's insertion date if that date is in the local future.
func (f *SmartFIFO[T]) Read() T {
	v, _ := f.r.take(f.r.caller("Read"))
	f.w.freed(1)
	f.r.took(1)
	return v
}

// IsEmpty implements the §III-B two-test rule, evaluated at the caller's
// local date t: the FIFO is externally empty iff either all cells are
// internally free, or the insertion date of the first busy cell is after
// t. It must be called from the reader-side process or a synchronized
// process.
func (f *SmartFIFO[T]) IsEmpty() bool { return f.r.isEmpty(f.r.caller("IsEmpty")) }

// IsFull is the symmetric two-test rule for the writer side: externally
// full iff all cells are internally busy, or the freeing date of the first
// free cell is after the caller's local date.
func (f *SmartFIFO[T]) IsFull() bool { return f.w.isFull(f.w.caller("IsFull")) }

// TryRead pops the oldest value if the FIFO is externally non-empty at the
// caller's local date. Unlike Read it never blocks, so it is safe from
// method processes (§III-B usage pattern: if IsEmpty, NextTrigger on
// NotEmpty, else TryRead).
func (f *SmartFIFO[T]) TryRead() (T, bool) { return f.r.tryRead(f.r.caller("TryRead")) }

// TryWrite appends v if the FIFO is externally non-full at the caller's
// local date. Never blocks; safe from method processes.
func (f *SmartFIFO[T]) TryWrite(v T) bool { return f.w.tryWrite(f.w.caller("TryWrite"), v) }

// Size implements the monitor interface (§III-C): the number of cells the
// *real* FIFO holds at the caller's date. The caller is synchronized first
// (thread callers only; method callers are synchronized by construction),
// then every cell is interpreted with the four-rule table of §III-C
// (ring.datedSize).
//
// Size is O(depth) — slower than a regular FIFO's counter, which is fine
// for the low-rate monitor use the paper targets (a few accesses per
// second).
func (f *SmartFIFO[T]) Size() int { return f.r.size(f.r.caller("Size")) }

// WriteBurst writes vals in order, advancing the writer's local clock by
// per between consecutive words: word i is written at the date of word 0
// plus i*per (later if the FIFO back-pressures). It blocks like Write when
// the FIFO is internally full.
func (f *SmartFIFO[T]) WriteBurst(vals []T, per sim.Time) {
	f.w.writeBurst(f.w.caller("WriteBurst"), vals, per)
}

// ReadBurst fills dst in order, advancing the reader's local clock by per
// between consecutive words. It blocks like Read when the FIFO is
// internally empty.
func (f *SmartFIFO[T]) ReadBurst(dst []T, per sim.Time) {
	f.r.readBurst(f.r.caller("ReadBurst"), dst, per)
}

// TryWriteBurst writes up to len(vals) externally acceptable words without
// blocking, advancing the caller's local clock by per between words, and
// returns the number of words written. Safe from method processes.
func (f *SmartFIFO[T]) TryWriteBurst(vals []T, per sim.Time) int {
	return f.w.tryWriteBurst(f.w.caller("TryWriteBurst"), vals, per)
}

// TryReadBurst pops up to len(dst) externally available words without
// blocking, advancing the caller's local clock by per between words. It
// returns the number of words read. Safe from method processes; used by
// the NoC network interfaces to packetize.
func (f *SmartFIFO[T]) TryReadBurst(dst []T, per sim.Time) int {
	return f.r.tryReadBurst(f.r.caller("TryReadBurst"), dst, per)
}

// handOffRun stores the payload of a write run and runs the "cells
// arrived" epilogue on the reader half.
func (f *SmartFIFO[T]) handOffRun(_ *sim.Process, q0 int, vals []T) {
	copyIn(f.cells.data, q0, vals)
	f.r.arrived(len(vals))
}

// handBack runs the "cells freed" epilogue on the writer half.
func (f *SmartFIFO[T]) handBack(_ *sim.Process, _, m int) { f.w.freed(m) }

func (f *SmartFIFO[T]) readerParked(*sim.Process) {}

var _ fifo.Channel[int] = (*SmartFIFO[int])(nil)
