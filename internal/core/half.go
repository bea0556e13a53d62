package core

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// The §III side logic, written once. A writeHalf and a readHalf each drive
// one side of a timestamped ring (ring.go): the blocking step of §III-A,
// the advance-to-bound stamping, the two-test IsFull/IsEmpty rule and the
// delayed external events of §III-B, the dated Size monitor of §III-C, and
// the bulk transfers below.
//
// SmartFIFO is both halves over one shared ring. A ShardedFIFO endpoint is
// one half over its own mirror ring. The halves never ask which owner they
// serve: they return each committed cell range to the owner, and the owner
// decides what the hand-off means. SmartFIFO stores the payload and runs
// the peer half's epilogue; a bridge endpoint stages the words or the
// freeing dates for the next exchange. A scalar access is composed by the
// owner itself (reserve or take, hand-off, then the half's own epilogue),
// so the hot path has no indirect call; bulk runs reach the owner through
// writeOwner and readOwner.
//
// # Burst contract
//
// Every burst method is defined by its scalar loop (fifo.ScalarWriteBurst
// and its three siblings): word 0 moves at the caller's current local
// date, and per of local time passes between consecutive words. The bulk
// paths below are bit-identical to those loops (pinned by the oracle
// property tests in burst_test.go): values, cell timestamps, local dates,
// Stats counters, context switches and blocking behavior are all
// unchanged. Only the kernel's Notifications counter drops, because
// redundant per-word notification calls are collapsed.
//
// A burst is split into runs bounded by the next internal occupancy
// boundary (internally full for writes, empty for reads). Within a run no
// other process can execute, since the scalar loop never yields between
// non-blocking words, so the run is executed as a whole:
//
//   - the insertion or freeing dates are stamped in one pass (runDates),
//     each word's date being the previous date + per lifted to the cell's
//     bound date exactly as the scalar Inc + AdvanceLocalTo pair does;
//   - the owner takes the whole run in one hand-off (payload copy, outbox
//     or credit batch);
//   - event work collapses to at most one NotifyDelta and one
//     NotifyAtReplace per event. This is exact: NotifyDelta is idempotent
//     while pending, and NotifyAtReplace has replace semantics, so only the
//     last call before a yield is observable. The bound dates along a run
//     are non-decreasing (each side stamps them in ring order), which makes
//     the per-word probe conditions monotone: the last word's probe decides
//     the final pending state.
//
// At a blocking boundary the transfer takes the scalar path for one word,
// so blocking, stats and the block policy are exactly the scalar ones, then
// resumes in bulk. Fault injection and a negative per run the scalar loop
// itself.

// half is the state and payload-free logic both sides share. None of it
// depends on the payload type, so these are plain (non-generic) calls on
// the hot path.
type half struct {
	k    *sim.Kernel
	name string
	side string // "write" or "read", for discipline errors
	c    *stamps

	// wake is the internal event a blocked access parks on (cell freed
	// for the writer, cell filled for the reader); ext is the side's
	// external event of §III-B (NotFull, NotEmpty).
	wake, ext *sim.Event

	// last enforces the access discipline: local dates on a side never
	// decrease.
	last sim.Time

	// ops, blocks and advances are this side's Stats counters.
	ops, blocks, advances uint64

	// policy is the §III-A ablation and fault the §IV-A mutation hook;
	// their zero values are the paper's implementation.
	policy BlockPolicy
	fault  Fault
}

func newHalf(k *sim.Kernel, name, side string, c *stamps, wake, ext *sim.Event) half {
	return half{k: k, name: name, side: side, c: c, wake: wake, ext: ext}
}

func (h *half) caller(op string) *sim.Process {
	if p := h.k.Current(); p != nil {
		return p
	}
	panic("core: " + h.name + ": " + op + " outside a process")
}

// enter enforces the §III requirement that two successive accesses on the
// same side cannot have decreasing local dates; t is the caller's local
// date.
func (h *half) enter(p *sim.Process, t sim.Time) {
	if t < h.last {
		h.disorder(p)
	}
	h.last = t
}

func (h *half) disorder(p *sim.Process) {
	panic(fmt.Sprintf(
		"core: %s: %s access by %q at local date %v after an access at %v; "+
			"each side needs non-decreasing dates (add an Arbiter if several processes share a side)",
		h.name, h.side, p.Name(), p.LocalTime(), h.last))
}

// park is one turn of the §III-A blocking step, taken while the ring is
// internally full (writes) or empty (reads). Under SyncThenWait an
// unsynchronized caller first lets the global date catch up; the caller
// re-checks the ring afterwards, since the other side may have moved in
// the meantime. WaitOnly parks the caller directly, and its absolute
// local date must survive the global time that passes while parked.
func (h *half) park(p *sim.Process) {
	h.blocks++
	if h.policy == SyncThenWait && !p.Synchronized() {
		p.Sync()
		return
	}
	local := p.LocalTime()
	p.WaitEvent(h.wake)
	p.SetLocalDate(local)
}

// notify schedules the external event at absolute date at, or at the next
// delta cycle if at is not in the future. Unlike plain sc_event
// earliest-wins semantics, the pending notification is replaced: the
// channel recomputes the authoritative next-availability date at every
// state change, and an earlier stale notification would be both spurious
// and, worse, would swallow the recomputed one, stranding event-driven
// consumers.
//
// Replacement happens through sim.Event.NotifyAtReplace, which elides all
// timed-queue traffic while the event has no subscribers (the pure Kahn
// case: blocking Read/Write only). The authoritative date is recorded and
// turned into a real notification lazily, the moment a waiter, static
// method or dynamic trigger attaches, so event-driven consumers observe
// exactly the dates they always did while the common case pays nothing.
func (h *half) notify(at sim.Time) {
	if h.fault == FaultNotifyNow {
		at = h.k.Now()
	}
	h.ext.NotifyAtReplace(at)
}

// size is the monitor interface (§III-C): the caller is synchronized first
// (thread callers only; method callers are synchronized by construction),
// then the ring is read with the four-rule table (stamps.datedSize).
func (h *half) size(p *sim.Process) int {
	if !p.IsMethod() {
		p.Sync()
	}
	if h.fault == FaultSizeIgnoresDates {
		return h.c.nBusy
	}
	return h.c.datedSize(p.LocalTime())
}

// sideStats merges the counters of a writer and a reader half.
func sideStats(w, r *half) Stats {
	return Stats{
		Writes:         w.ops,
		Reads:          r.ops,
		WriterBlocks:   w.blocks,
		ReaderBlocks:   r.blocks,
		WriterAdvances: w.advances,
		ReaderAdvances: r.advances,
	}
}

// --- writer half ---

// writeSide is the payload-free writer logic.
type writeSide struct{ half }

// reserve is the scalar write of §III-A up to the hand-off. If every cell
// is internally busy the caller parks. Otherwise, if the first free cell's
// freeing date is in the caller's local future, the caller's local clock
// advances to it, since the real FIFO had no free cell before that date,
// and the write costs no context switch at all. The insertion date is the
// resulting local date. It returns the committed cell; the owner then hands
// the payload off and runs wrote(1).
func (h *writeSide) reserve(p *sim.Process) int {
	h.enter(p, p.LocalTime())
	c := h.c
	for c.nBusy == len(c.ins) {
		h.park(p)
	}
	q := c.firstFree
	if h.fault != FaultNoWriterAdvance {
		if c.free[q] > p.LocalTime() {
			h.advances++
		}
		p.AdvanceLocalTo(c.free[q])
	}
	c.ins[q] = p.LocalTime()
	if h.fault == FaultInsertDateNow {
		c.ins[q] = h.k.Now()
	}
	c.firstFree = wrap(q+1, len(c.ins))
	c.nBusy++
	h.ops++
	h.last = p.LocalTime()
	return q
}

// isFull is the two-test writer rule: externally full iff all cells are
// internally busy, or the freeing date of the first free cell is after the
// caller's local date.
func (h *writeSide) isFull(p *sim.Process) bool {
	c := h.c
	return c.nBusy == len(c.ins) || c.free[c.firstFree] > p.LocalTime()
}

// stampRun stamps and commits one bulk write run of up to n words into the
// internally free cells (runDates) and returns the committed range; m is 0
// iff the ring is internally full.
func (h *writeSide) stampRun(p *sim.Process, n int, per sim.Time, incFirst bool) (q0, m int) {
	c := h.c
	m = min(len(c.ins)-c.nBusy, n)
	if m == 0 {
		return 0, 0
	}
	h.enter(p, p.LocalTime())
	q0 = c.firstFree
	end, adv := runDates(c.ins, c.free, q0, m, p.LocalTime(), per, incFirst)
	h.commit(p, m, end, adv)
	return q0, m
}

// stampTry stamps and commits the longest run of up to n words the scalar
// TryWrite loop would accept (tryRunDates) and returns its range.
func (h *writeSide) stampTry(p *sim.Process, n int, per sim.Time) (q0, m int) {
	c := h.c
	mMax := min(len(c.ins)-c.nBusy, n)
	if mMax == 0 || c.free[c.firstFree] > p.LocalTime() {
		return 0, 0
	}
	h.enter(p, p.LocalTime())
	q0 = c.firstFree
	m, end := tryRunDates(c.ins, c.free, q0, mMax, p.LocalTime(), per)
	h.commit(p, m, end, 0)
	return q0, m
}

func (h *writeSide) commit(p *sim.Process, m int, end sim.Time, adv uint64) {
	c := h.c
	c.firstFree = wrap(c.firstFree+m, len(c.ins))
	c.nBusy += m
	h.ops += uint64(m)
	h.advances += adv
	h.last = end
	p.AdvanceLocalTo(end)
}

// wrote is the writer-side epilogue of a run of m ≥ 1 words: the final
// pending state of the scalar loop's per-word NotFull probes. While the
// ring still has room, a synchronized writer sees it full until the next
// free cell's freeing date. If the run filled the ring, the last probing
// word was m-2, naming the freeing date of the cell word m-1 then filled.
func (h *writeSide) wrote(m int) {
	c := h.c
	d := len(c.ins)
	q := c.firstFree
	if c.nBusy == d {
		if m < 2 {
			return
		}
		q = wrap(q+d-1, d)
	}
	if fd := c.free[q]; fd > h.k.Now() {
		h.notify(fd)
	}
}

// freed is the "cells freed" epilogue, run once m cells have returned to
// the writer side: it wakes a parked writer and, if the ring was full,
// dates the external non-full transition at the freeing date of the first
// returned cell.
func (h *writeSide) freed(m int) {
	h.wake.NotifyDelta()
	if c := h.c; c.nBusy == len(c.ins)-m {
		h.notify(c.free[c.firstFree])
	}
}

// writeOwner is the channel writer side a writeHalf serves. Its scalar
// Write moves the one-word steps of WriteBurst and serves the burst
// contract's fallback loops; handOffRun takes the payload of each bulk run.
type writeOwner[T any] interface {
	fifo.Writer[T]
	// handOffRun takes vals, just committed into the cells from q0 on
	// (wrapping).
	handOffRun(p *sim.Process, q0 int, vals []T)
}

// writeHalf is the writer side of the §III rules: the payload-free logic
// plus the owner that takes each committed run.
type writeHalf[T any] struct {
	writeSide
	out writeOwner[T]
}

// tryWrite appends v if the FIFO is externally non-full at the caller's
// local date. It never blocks.
func (h *writeHalf[T]) tryWrite(p *sim.Process, v T) bool {
	if h.isFull(p) {
		return false
	}
	h.out.Write(v)
	return true
}

// writeBurst is the blocking bulk loop: bulk runs over the free cells,
// one scalar Write at each internally full boundary.
func (h *writeHalf[T]) writeBurst(p *sim.Process, vals []T, per sim.Time) {
	if h.fault != FaultNone || per < 0 {
		fifo.ScalarWriteBurst(p, h.out, vals, per)
		return
	}
	for i := 0; i < len(vals); {
		if q0, m := h.stampRun(p, len(vals)-i, per, i > 0); m > 0 {
			h.handOffRun(p, q0, vals[i:i+m])
			i += m
			continue
		}
		if i > 0 {
			p.Inc(per)
		}
		h.out.Write(vals[i])
		i++
	}
}

// tryWriteBurst writes the longest prefix of vals the scalar TryWrite loop
// would accept, without blocking, and returns its length.
func (h *writeHalf[T]) tryWriteBurst(p *sim.Process, vals []T, per sim.Time) int {
	if h.fault != FaultNone || per < 0 {
		return fifo.ScalarTryWriteBurst(p, h.out, vals, per)
	}
	q0, m := h.stampTry(p, len(vals), per)
	if m > 0 {
		h.handOffRun(p, q0, vals[:m])
	}
	return m
}

func (h *writeHalf[T]) handOffRun(p *sim.Process, q0 int, vals []T) {
	h.out.handOffRun(p, q0, vals)
	h.wrote(len(vals))
}

// --- reader half ---

// readSide is the payload-free reader logic.
type readSide struct{ half }

// isEmpty is the §III-B two-test rule, evaluated at the caller's local
// date: externally empty iff all cells are internally free, or the
// insertion date of the first busy cell is after that date. It runs in
// constant time ("two tests instead of one for a regular FIFO"). It must
// be called from the reader-side process or a synchronized process; under
// that discipline the two tests are exact.
func (h *readSide) isEmpty(p *sim.Process) bool {
	c := h.c
	if c.nBusy == 0 {
		return true
	}
	return h.fault != FaultEmptyIgnoresDates && c.ins[c.firstBusy] > p.LocalTime()
}

// stampRun stamps and commits one bulk read run of up to n words out of
// the internally busy cells and returns the committed range; m is 0 iff
// the ring is internally empty.
func (h *readSide) stampRun(p *sim.Process, n int, per sim.Time, incFirst bool) (q0, m int) {
	c := h.c
	m = min(c.nBusy, n)
	if m == 0 {
		return 0, 0
	}
	h.enter(p, p.LocalTime())
	q0 = c.firstBusy
	end, adv := runDates(c.free, c.ins, q0, m, p.LocalTime(), per, incFirst)
	h.commit(p, m, end, adv)
	return q0, m
}

// stampTry stamps and commits the longest run of up to n words the scalar
// TryRead loop would take and returns its range.
func (h *readSide) stampTry(p *sim.Process, n int, per sim.Time) (q0, m int) {
	c := h.c
	mMax := min(c.nBusy, n)
	if mMax == 0 || c.ins[c.firstBusy] > p.LocalTime() {
		return 0, 0
	}
	h.enter(p, p.LocalTime())
	q0 = c.firstBusy
	m, end := tryRunDates(c.free, c.ins, q0, mMax, p.LocalTime(), per)
	h.commit(p, m, end, 0)
	return q0, m
}

func (h *readSide) commit(p *sim.Process, m int, end sim.Time, adv uint64) {
	c := h.c
	c.firstBusy = wrap(c.firstBusy+m, len(c.ins))
	c.nBusy -= m
	h.ops += uint64(m)
	h.advances += adv
	h.last = end
	p.AdvanceLocalTo(end)
}

// took is the reader-side epilogue of a run of m ≥ 1 words (§III-B,
// notification case 2): the next datum exists internally but becomes
// externally visible only at its insertion date. If the run drained the
// ring, the last probing word was m-2, naming the insertion date of the
// cell word m-1 then popped.
func (h *readSide) took(m int) {
	c := h.c
	d := len(c.ins)
	q := c.firstBusy
	if c.nBusy == 0 {
		if m < 2 {
			return
		}
		q = wrap(q+d-1, d)
	}
	if id := c.ins[q]; id > h.k.Now() {
		h.notify(id)
	}
}

// arrived is the "cells arrived" epilogue, run once m cells have been
// filled for the reader side: it wakes a parked reader and, if the ring
// was empty, dates the external non-empty transition at the insertion
// date of the first new datum.
func (h *readSide) arrived(m int) {
	h.wake.NotifyDelta()
	if c := h.c; c.nBusy == m {
		h.notify(c.ins[c.firstBusy])
	}
}

// readOwner is the channel reader side a readHalf serves. Its scalar Read
// moves the one-word steps of ReadBurst and serves the burst contract's
// fallback loops.
type readOwner[T any] interface {
	fifo.Reader[T]
	// readerParked runs each time a read finds the ring internally empty,
	// just before the reader parks.
	readerParked(p *sim.Process)
	// handBack takes the m cells from q0 on (wrapping) that a read just
	// freed; their freeing dates are stamped.
	handBack(p *sim.Process, q0, m int)
}

// readHalf is the reader side of the §III rules: the payload-free logic,
// the ring payload it pops, and the owner that takes each freed cell.
type readHalf[T any] struct {
	readSide
	data []T
	out  readOwner[T]
}

// take is the scalar read of §III-A up to the hand-back, symmetric to
// writeSide.reserve: park only when internally empty; otherwise advance
// the reader's local clock to the datum's insertion date if that date is
// in the local future. The freeing date is the resulting local date. It
// returns the value and the freed cell; the owner then hands the cell back
// and runs took(1).
func (h *readHalf[T]) take(p *sim.Process) (T, int) {
	h.enter(p, p.LocalTime())
	c := h.c
	for c.nBusy == 0 {
		h.out.readerParked(p)
		h.park(p)
	}
	q := c.firstBusy
	if h.fault != FaultNoReaderAdvance {
		if c.ins[q] > p.LocalTime() {
			h.advances++
		}
		p.AdvanceLocalTo(c.ins[q])
	}
	v := h.data[q]
	var zero T
	h.data[q] = zero
	c.free[q] = p.LocalTime()
	c.firstBusy = wrap(q+1, len(c.ins))
	c.nBusy--
	h.ops++
	h.last = p.LocalTime()
	return v, q
}

// tryRead pops the oldest value if the FIFO is externally non-empty at the
// caller's local date. It never blocks.
func (h *readHalf[T]) tryRead(p *sim.Process) (T, bool) {
	if h.isEmpty(p) {
		var zero T
		return zero, false
	}
	return h.out.Read(), true
}

// readBurst is the blocking bulk loop: bulk runs over the busy cells,
// one scalar Read at each internally empty boundary.
func (h *readHalf[T]) readBurst(p *sim.Process, dst []T, per sim.Time) {
	if h.fault != FaultNone || per < 0 {
		fifo.ScalarReadBurst(p, h.out, dst, per)
		return
	}
	for i := 0; i < len(dst); {
		if q0, m := h.stampRun(p, len(dst)-i, per, i > 0); m > 0 {
			h.takeRun(p, q0, dst[i:i+m])
			i += m
			continue
		}
		if i > 0 {
			p.Inc(per)
		}
		dst[i] = h.out.Read()
		i++
	}
}

// tryReadBurst pops the longest prefix the scalar TryRead loop would take,
// without blocking, and returns its length.
func (h *readHalf[T]) tryReadBurst(p *sim.Process, dst []T, per sim.Time) int {
	if h.fault != FaultNone || per < 0 {
		return fifo.ScalarTryReadBurst(p, h.out, dst, per)
	}
	q0, m := h.stampTry(p, len(dst), per)
	if m > 0 {
		h.takeRun(p, q0, dst[:m])
	}
	return m
}

// takeRun moves the payload of a committed read run into dst.
func (h *readHalf[T]) takeRun(p *sim.Process, q0 int, dst []T) {
	copyOut(dst, h.data, q0)
	h.out.handBack(p, q0, len(dst))
	h.took(len(dst))
}
