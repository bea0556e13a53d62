package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// ShardedFIFO is a Smart FIFO whose writer and reader sides live on
// different kernels (simulation shards). It is the cross-shard bridge of
// the conservative parallel scheduler (internal/par): the same cell
// timestamps that let a single-kernel Smart FIFO advance a blocked
// process's local clock also tell a shard coordinator how far the reading
// shard may safely run ahead — the insertion dates are the lookahead, so no
// null messages are needed.
//
// Each endpoint keeps its own mirror of the cell ring:
//
//   - the writer endpoint tracks which cells are busy and the freeing date
//     of each free cell (its credit window). Write fills a cell exactly
//     like SmartFIFO.Write — advancing the writer's local clock to the
//     cell's freeing date, stamping the insertion date — and stages the
//     datum in an outbox;
//   - the reader endpoint tracks delivered data with insertion dates.
//     Read pops exactly like SmartFIFO.Read — advancing the reader's
//     local clock to the insertion date — and stages the freeing date for
//     the writer.
//
// The exchange (each side's half between its own kernel's Steps, or Flush
// at a global safe point) moves the outbox into the reader's cells and the
// freeing dates into the writer's credit window, waking blocked endpoint
// processes. Because deliveries are deferred to exchanges, the endpoints'
// external views lag the real state — but every date carried is exact, so blocking
// Read/Write produce local dates identical to a single-kernel SmartFIFO
// (pinned by TestShardedFIFOMatchesSmart and the 1-vs-N-shard trace
// equivalence tests). The two-test IsEmpty/IsFull rules and the dated Size
// monitor are evaluated per endpoint over that endpoint's mirror; they are
// exact for dates up to the bridge's frontier.
//
// Both endpoints offer the burst interface of burst.go: bulk runs over the
// credit window (writes) or the delivered cells (reads), with outbox
// staging and freeing-date credits batched as runs. The bulk paths are
// bit-identical to the scalar endpoint loops, so a sharded burst model
// keeps the single-kernel dates.
//
// Blocking always uses the SyncThenWait discipline (see BlockPolicy); the
// WaitOnly ablation is not offered across shards.
type ShardedFIFO[T any] struct {
	name string

	w ShardedWriter[T]
	r ShardedReader[T]
	x xfer[T]
}

// xfer is the cross-shard mailbox between the two endpoints: the only
// state both shards touch while their kernels run concurrently. Each
// side moves its staged batch in and the peer's batch out under mu at
// its own kernel safe points (between Steps), so endpoint internals
// never need locking. The published bounds let the reading shard derive
// its horizon the moment the writer publishes one, without a global
// safe point.
type xfer[T any] struct {
	mu sync.Mutex

	// data/ins are delivered-but-unimported writes (writer → reader);
	// frees are returned-but-unimported credits (reader → writer).
	data  []T
	ins   []sim.Time
	frees []sim.Time

	// base is the writer-published frontier base: a lower bound, over
	// writer-side state only, on the insertion date of anything the
	// writer stages after the publish. Monotone (the max of valid lower
	// bounds is a valid lower bound). blocked records whether the credit
	// window was full at publish time — the reader then completes the
	// bound with its own read floor (or the oldest outstanding credit).
	// term latches when the sole writer terminated: no future delivery.
	base    sim.Time
	blocked bool
	term    bool

	// rFloor is the reader-published pop floor (monotone): every future
	// credit carries a freeing date at or after it.
	rFloor sim.Time

	// baseA/rFloorA/wfA mirror the published bounds for lock-free
	// observation (diagnostics, benchmarks); the authoritative values
	// are read under mu by the exchange halves.
	baseA   atomic.Int64
	rFloorA atomic.Int64
	wfA     atomic.Int64

	// m, captured at construction, is the optional shared metrics sink
	// (see metrics.go).
	m *BridgeMetrics
}

// ShardedWriter is the writer-side endpoint, owned by the writer kernel.
// It implements fifo.WriteEnd.
type ShardedWriter[T any] struct {
	f *ShardedFIFO[T]
	k *sim.Kernel

	cells ring[T] // payload unused: only the occupancy and date mirrors

	// outData/outIns are the writes staged since the last Flush,
	// struct-of-arrays so Flush can move them with copy.
	outData []T
	outIns  []sim.Time

	cellFreed *sim.Event
	notFull   *sim.Event

	lastWriteDate sim.Time
	writer        *sim.Process // sole writing process, nil before first write
	multiWriter   bool         // a second process wrote: disable the local-date frontier refinement

	stats Stats
}

// ShardedReader is the reader-side endpoint, owned by the reader kernel.
// It implements fifo.ReadEnd.
type ShardedReader[T any] struct {
	f *ShardedFIFO[T]
	k *sim.Kernel

	cells ring[T]

	pendingFrees []sim.Time // freeing dates staged since the last Flush

	cellFilled *sim.Event
	notEmpty   *sim.Event

	lastReadDate sim.Time
	// retryAt is the reader's local date while it is blocked on an empty
	// endpoint: the date at which the next pop (and hence the next
	// freeing) can happen. Frontier consults it when the writer is
	// credit-blocked — the freeing-date half of the Smart-FIFO lookahead.
	retryAt     sim.Time
	reader      *sim.Process
	multiReader bool

	// effFrontier caches the highest effective inbound frontier this
	// endpoint has derived (FlushReaderSide). Monotone: an old bound
	// stays valid because the set of future deliveries only shrinks.
	// Touched only by the reader shard's worker.
	effFrontier sim.Time

	stats Stats
}

// readFloor is a lower bound on the date of the reader's next pop.
func (r *ShardedReader[T]) readFloor() sim.Time {
	if !r.multiReader && r.retryAt > r.lastReadDate {
		return r.retryAt
	}
	return r.lastReadDate
}

// NewSharded creates a sharded Smart FIFO with the given depth, its writer
// side on kernel wk and its reader side on kernel rk. The two kernels may
// be the same (a degenerate bridge, still exchanged), which is
// how a sharded model collapses onto one kernel for 1-shard validation
// runs.
func NewSharded[T any](wk, rk *sim.Kernel, name string, depth int) *ShardedFIFO[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("core: %s: non-positive depth %d", name, depth))
	}
	f := &ShardedFIFO[T]{name: name}
	f.x.m = defaultBridgeMetrics.Load()
	f.w = ShardedWriter[T]{
		f:         f,
		k:         wk,
		cells:     newRing[T](depth),
		cellFreed: sim.NewEvent(wk, name+".w.cell_freed"),
		notFull:   sim.NewEvent(wk, name+".w.not_full"),
	}
	f.r = ShardedReader[T]{
		f:          f,
		k:          rk,
		cells:      newRing[T](depth),
		cellFilled: sim.NewEvent(rk, name+".r.cell_filled"),
		notEmpty:   sim.NewEvent(rk, name+".r.not_empty"),
	}
	return f
}

// Name returns the channel name.
func (f *ShardedFIFO[T]) Name() string { return f.name }

// Depth returns the capacity in cells.
func (f *ShardedFIFO[T]) Depth() int { return f.w.cells.depth() }

// Writer returns the writer-side endpoint, to be used only by processes of
// the writer kernel.
func (f *ShardedFIFO[T]) Writer() *ShardedWriter[T] { return &f.w }

// Reader returns the reader-side endpoint, to be used only by processes of
// the reader kernel.
func (f *ShardedFIFO[T]) Reader() *ShardedReader[T] { return &f.r }

// WriterKernel returns the kernel owning the writer side.
func (f *ShardedFIFO[T]) WriterKernel() *sim.Kernel { return f.w.k }

// ReaderKernel returns the kernel owning the reader side.
func (f *ShardedFIFO[T]) ReaderKernel() *sim.Kernel { return f.r.k }

// Stats merges both endpoints' counters. Call it only while neither kernel
// is running (between coordinator rounds or after a run).
func (f *ShardedFIFO[T]) Stats() Stats {
	w, r := f.w.stats, f.r.stats
	return Stats{
		Writes:         w.Writes,
		Reads:          r.Reads,
		WriterBlocks:   w.WriterBlocks,
		ReaderBlocks:   r.ReaderBlocks,
		WriterAdvances: w.WriterAdvances,
		ReaderAdvances: r.ReaderAdvances,
	}
}

// Flush moves everything staged on either side across the shard boundary
// — outbox and mailbox data to the reader, pending and mailbox credits to
// the writer — and reports whether anything moved. It must be called only
// at a global safe point (an all-parked coordinator rendezvous),
// while neither kernel is running. Both directions move as bulk ring
// copies (≤ 2 contiguous segments each). It also refreshes the published
// bounds, since a global safe point is trivially a safe point for each
// side.
func (f *ShardedFIFO[T]) Flush() bool {
	f.x.mu.Lock()
	defer f.x.mu.Unlock()
	a := f.stageOutboxLocked()
	b := f.deliverDataLocked()
	c := f.stageFreesLocked()
	d := f.deliverFreesLocked()
	f.publishWriterBoundsLocked()
	f.publishReaderFloorLocked()
	return a || b || c || d
}

// stageOutboxLocked moves the writer outbox into the mailbox. Writer-side
// safe point; x.mu held.
func (f *ShardedFIFO[T]) stageOutboxLocked() bool {
	w, x := &f.w, &f.x
	if len(w.outData) == 0 {
		return false
	}
	x.data = append(x.data, w.outData...)
	x.ins = append(x.ins, w.outIns...)
	if x.m != nil {
		n := uint64(len(w.outData))
		x.m.WordsCrossed.Add(n)
		x.m.FlushBatchWords.Observe(float64(n))
	}
	clear(w.outData) // release payload references to the GC
	w.outData = w.outData[:0]
	w.outIns = w.outIns[:0]
	return true
}

// deliverDataLocked moves mailbox data into the reader's cells, waking a
// blocked reader and refreshing the external view (the FIFO becomes
// non-empty at the insertion date of the first datum). Reader-side safe
// point; x.mu held.
func (f *ShardedFIFO[T]) deliverDataLocked() bool {
	x, r := &f.x, &f.r
	k := len(x.data)
	if k == 0 {
		return false
	}
	rc := &r.cells
	wasEmpty := rc.nBusy == 0
	q0 := rc.firstFree
	copyIn(rc.data, q0, x.data)
	copyIn(rc.ins, q0, x.ins)
	rc.firstFree = wrap(q0+k, rc.depth())
	rc.nBusy += k
	clear(x.data)
	x.data = x.data[:0]
	x.ins = x.ins[:0]
	r.cellFilled.NotifyDelta()
	if wasEmpty {
		r.notEmpty.NotifyAtReplace(rc.ins[rc.firstBusy])
	}
	return true
}

// stageFreesLocked moves the reader's pending freeing dates into the
// mailbox. Reader-side safe point; x.mu held.
func (f *ShardedFIFO[T]) stageFreesLocked() bool {
	r, x := &f.r, &f.x
	if len(r.pendingFrees) == 0 {
		return false
	}
	x.frees = append(x.frees, r.pendingFrees...)
	r.pendingFrees = r.pendingFrees[:0]
	return true
}

// deliverFreesLocked moves mailbox credits into the writer's window,
// waking a blocked writer (the FIFO becomes non-full at the freeing date
// of the first available cell). Writer-side safe point; x.mu held.
func (f *ShardedFIFO[T]) deliverFreesLocked() bool {
	x, w := &f.x, &f.w
	k := len(x.frees)
	if k == 0 {
		return false
	}
	wc := &w.cells
	wasFull := wc.nBusy == len(wc.ins)
	q0 := wc.firstBusy
	copyIn(wc.free, q0, x.frees)
	wc.firstBusy = wrap(q0+k, wc.depth())
	wc.nBusy -= k
	if x.m != nil {
		x.m.CreditReturns.Add(uint64(k))
	}
	x.frees = x.frees[:0]
	w.cellFreed.NotifyDelta()
	if wasFull {
		w.notFull.NotifyAtReplace(wc.free[wc.firstFree])
	}
	return true
}

// publishWriterBoundsLocked recomputes the writer-side frontier terms and
// publishes them into the mailbox, monotonically. It must only run with
// the outbox empty (already staged): the base covers future writes, and a
// withheld outbox entry could be older than it. Writer-side safe point;
// x.mu held. Reports whether the published state changed.
func (f *ShardedFIFO[T]) publishWriterBoundsLocked() bool {
	w, x := &f.w, &f.x
	if !w.multiWriter && w.writer != nil && w.writer.Terminated() {
		if !x.term {
			x.term = true
			x.baseA.Store(int64(sim.TimeMax))
			return true
		}
		return false
	}
	base := w.lastWriteDate
	if now := w.k.Now(); now > base {
		base = now
	}
	if !w.multiWriter && w.writer != nil {
		if lt := w.writer.LocalTime(); lt > base {
			base = lt
		}
	}
	wc := &w.cells
	blocked := wc.nBusy == len(wc.ins)
	if !blocked {
		if fd := wc.free[wc.firstFree]; fd > base {
			base = fd
		}
	}
	changed := false
	if base > x.base {
		x.base = base
		x.baseA.Store(int64(base))
		changed = true
	}
	if blocked != x.blocked {
		x.blocked = blocked
		changed = true
	}
	return changed
}

// publishReaderFloorLocked publishes the reader's pop floor, monotonically.
// Reader-side safe point; x.mu held. Reports whether the floor rose.
func (f *ShardedFIFO[T]) publishReaderFloorLocked() bool {
	r, x := &f.r, &f.x
	if rf := r.readFloor(); rf > x.rFloor {
		x.rFloor = rf
		x.rFloorA.Store(int64(rf))
		return true
	}
	return false
}

// FlushWriterSide is the writer shard's half of an asynchronous exchange:
// stage the outbox into the mailbox, import pending credits, publish the
// frontier bounds, and return the write frontier bounding the shard's own
// clock. Call it only from the writer shard's worker at a kernel safe
// point (between Steps).
//
// deferData (fault injection) withholds the whole exchange: nothing is
// staged, imported, or published, so the previously published bounds —
// still valid, since they covered all deliveries future of their own
// publish — keep bounding the reader until a later exchange or a
// rendezvous Flush.
//
// The two publication flags grade what the reader shard can now observe:
// data means words were staged — the only writer-side publication that
// can make a reader process runnable — while bound means a frontier
// bound was raised, which matters only to a reader shard whose horizon
// is capping timed work it already holds.
func (f *ShardedFIFO[T]) FlushWriterSide(deferData bool) (writeFrontier sim.Time, data, bound bool) {
	w, x := &f.w, &f.x
	x.mu.Lock()
	if !deferData {
		data = f.stageOutboxLocked()
		f.deliverFreesLocked()
		// Publish after the credit import so the base reflects the
		// freshest window state — and so "blocked" is always current
		// with respect to every credit published so far, which is what
		// lets the reader trust its own read floor when the mailbox
		// holds no credits.
		bound = f.publishWriterBoundsLocked()
	}
	rf := x.rFloor
	x.mu.Unlock()

	if !w.multiWriter && w.writer != nil && w.writer.Terminated() {
		x.wfA.Store(int64(sim.TimeMax))
		return sim.TimeMax, data, bound
	}
	wf := w.lastWriteDate
	if rf > wf {
		wf = rf
	}
	if !w.multiWriter && w.writer != nil {
		if lt := w.writer.LocalTime(); lt > wf {
			wf = lt
		}
	}
	x.wfA.Store(int64(wf))
	return wf, data, bound
}

// FlushReaderSide is the reader shard's half of an asynchronous exchange:
// publish freed-cell credits and the pop floor, import delivered data,
// and derive the effective inbound frontier. Call it only from the reader
// shard's worker at a kernel safe point (between Steps).
//
// The returned frontier is the writer-published base completed with the
// reader-side half of the Smart-FIFO lookahead: when the writer was
// credit-blocked at publish time, the next insertion follows either the
// oldest credit it has not yet imported (the mailbox head) or, when every
// credit has been imported and none is staged here, the reader's own next
// pop. The value is monotone across calls.
//
// The publication flags grade what the writer shard can now observe:
// credit means freed cells crossed while the writer had published a full
// window — importing them is what makes a credit-parked writer process
// runnable again — while bound covers credits and floor raises that only
// refresh the writer's frontier arithmetic. A credit-parked writer always
// publishes blocked first (its worker exchanges after every Step, before
// parking), so staged frees against a non-blocked window are never a
// missed wake.
func (f *ShardedFIFO[T]) FlushReaderSide() (frontier sim.Time, credit, bound bool) {
	r, x := &f.r, &f.x
	staged := false
	x.mu.Lock()
	if f.stageFreesLocked() {
		staged = true
		bound = true
	}
	if f.publishReaderFloorLocked() {
		bound = true
	}
	credit = staged && x.blocked
	f.deliverDataLocked()
	front := x.base
	switch {
	case x.term:
		front = sim.TimeMax
	case x.blocked:
		if len(x.frees) > 0 {
			// Credits the writer has not imported: its next write lands
			// in the cell freed by the oldest of them.
			if d := x.frees[0]; d > front {
				front = d
			}
		} else if rf := r.readFloor(); rf > front {
			// No credit outstanding anywhere (the writer republishes
			// under the same lock whenever it imports), so the writer
			// stays parked until this side pops again.
			front = rf
		}
	}
	x.mu.Unlock()
	if front > r.effFrontier {
		r.effFrontier = front
	}
	return r.effFrontier, credit, bound
}

// AsyncBounds returns the last published frontier base and write
// frontier without locking — a racy but monotone observation for
// diagnostics and benchmarks. The exchange halves read the authoritative
// values under the mailbox lock.
func (f *ShardedFIFO[T]) AsyncBounds() (base, writeFrontier sim.Time) {
	return sim.Time(f.x.baseA.Load()), sim.Time(f.x.wfA.Load())
}

// Frontier returns a lower bound on the insertion dates of everything the
// bridge may still deliver: the reader's shard may safely simulate up to
// and including this date. Call it only at a global safe point, after Flush (an
// undelivered outbox entry could be older than the bound).
//
// The bound is the §III access discipline turned into lookahead — no null
// messages, just the cell timestamps:
//
//   - write dates on a side never decrease, so the last insertion date
//     bounds all future ones; the writer process's own local date (when a
//     single process owns the side) and its kernel's date tighten it;
//   - when the credit window has room, the next write lands in a known
//     cell and advances to that cell's freeing date;
//   - when the window is full, the writer is throttled by the reader
//     itself: the next insertion follows the reader's next pop, so the
//     reader's own read floor is the bound. This is what breaks the
//     classic conservative-deadlock cycle without null messages.
//
// A terminated writer can never deliver again — the frontier becomes
// sim.TimeMax and the reader runs unthrottled.
func (f *ShardedFIFO[T]) Frontier() sim.Time {
	w, r := &f.w, &f.r
	if !w.multiWriter && w.writer != nil && w.writer.Terminated() {
		return sim.TimeMax
	}
	front := w.lastWriteDate
	if now := w.k.Now(); now > front {
		front = now
	}
	if !w.multiWriter && w.writer != nil {
		if lt := w.writer.LocalTime(); lt > front {
			front = lt
		}
	}
	wc := &w.cells
	if wc.nBusy < len(wc.ins) {
		if fd := wc.free[wc.firstFree]; fd > front {
			front = fd
		}
	} else if rf := r.readFloor(); rf > front {
		front = rf
	}
	return front
}

// WriteFrontier returns a lower bound on the resume date of any write
// that blocks (now or later this round) on exhausted credits: the writer's
// shard must not advance its kernel clock past this date, or a parked
// writer's restored local date would be clamped to the kernel clock
// (sim.Process.SetLocalDate cannot represent a local date in the global
// past) and the §III dates would drift. Call it only at a global safe point, after
// Flush, like Frontier.
//
// A blocked write resumes at max(its restore date, the freeing date of
// the credit that wakes it), so the bound is the max of
//
//   - the reader's read floor — every future credit carries a freeing
//     date at or after the reader's next pop;
//   - the side's last write date — any future park's restore date is at
//     or after it (per-side dates are non-decreasing);
//   - the writer process's local date (single-writer refinement): a
//     future park restores at or after the writer's current local date.
//
// A terminated writer can never park again — the bound is sim.TimeMax
// and the shard runs unthrottled.
func (f *ShardedFIFO[T]) WriteFrontier() sim.Time {
	w, r := &f.w, &f.r
	if !w.multiWriter && w.writer != nil && w.writer.Terminated() {
		return sim.TimeMax
	}
	bound := w.lastWriteDate
	if rf := r.readFloor(); rf > bound {
		bound = rf
	}
	if !w.multiWriter && w.writer != nil {
		if lt := w.writer.LocalTime(); lt > bound {
			bound = lt
		}
	}
	return bound
}

// --- writer endpoint ---

// Name returns the channel name.
func (w *ShardedWriter[T]) Name() string { return w.f.name }

// Depth returns the capacity in cells.
func (w *ShardedWriter[T]) Depth() int { return w.cells.depth() }

// Kernel returns the kernel owning this endpoint.
func (w *ShardedWriter[T]) Kernel() *sim.Kernel { return w.k }

func (w *ShardedWriter[T]) caller(op string) *sim.Process {
	p := w.k.Current()
	if p == nil {
		panic(fmt.Sprintf("core: %s: %s outside a process", w.f.name, op))
	}
	return p
}

// noteWriter records the writing process for the frontier refinement.
func (w *ShardedWriter[T]) noteWriter(p *sim.Process) {
	if w.writer == nil {
		w.writer = p
	} else if w.writer != p {
		w.multiWriter = true
	}
}

// Write appends v, exactly like SmartFIFO.Write: if the credit window is
// exhausted the calling thread synchronizes and parks until Flush returns
// freed cells; otherwise the caller's local clock advances to the freeing
// date of the cell it fills and the write costs no context switch.
func (w *ShardedWriter[T]) Write(v T) {
	p := w.caller("Write")
	checkSideOrderFor(w.f.name, p, &w.lastWriteDate, "write")
	r := &w.cells
	for r.nBusy == len(r.ins) {
		w.stats.WriterBlocks++
		if !p.Synchronized() {
			p.Sync()
			continue
		}
		local := p.LocalTime()
		p.WaitEvent(w.cellFreed)
		p.SetLocalDate(local)
	}
	q := r.firstFree
	if r.free[q] > p.LocalTime() {
		w.stats.WriterAdvances++
	}
	p.AdvanceLocalTo(r.free[q])
	r.ins[q] = p.LocalTime()
	r.firstFree = (q + 1) % len(r.ins)
	r.nBusy++
	w.stats.Writes++
	w.lastWriteDate = p.LocalTime()
	w.noteWriter(p)
	w.outData = append(w.outData, v)
	w.outIns = append(w.outIns, r.ins[q])
	// Writer-side external view: still not full, but the next free cell
	// only frees in the future.
	if r.nBusy < len(r.ins) {
		if fd := r.free[r.firstFree]; fd > w.k.Now() {
			w.notFull.NotifyAtReplace(fd)
		}
	}
}

// WriteBurst writes vals in order, advancing the writer's local clock by
// per between consecutive words (the burst contract of burst.go). The
// fast path annotates the credit window as runs and stages the outbox in
// batches; it blocks like Write when the window is exhausted.
func (w *ShardedWriter[T]) WriteBurst(vals []T, per sim.Time) {
	p := w.caller("WriteBurst")
	if per < 0 {
		for i, v := range vals {
			if i > 0 {
				p.Inc(per)
			}
			w.Write(v)
		}
		return
	}
	first := true
	for len(vals) > 0 {
		if n := w.writeRun(p, vals, per, !first); n > 0 {
			vals = vals[n:]
			first = false
			continue
		}
		if !first {
			p.Inc(per)
		}
		w.Write(vals[0])
		vals = vals[1:]
		first = false
	}
}

// TryWriteBurst writes up to len(vals) externally acceptable words without
// blocking (burst contract) and returns the number written.
func (w *ShardedWriter[T]) TryWriteBurst(vals []T, per sim.Time) int {
	p := w.caller("TryWriteBurst")
	if per < 0 {
		n := 0
		for i, v := range vals {
			if i > 0 {
				if w.IsFull() {
					break
				}
				p.Inc(per)
			}
			if !w.TryWrite(v) {
				break
			}
			n++
		}
		return n
	}
	r := &w.cells
	d := len(r.ins)
	mMax := d - r.nBusy
	if mMax > len(vals) {
		mMax = len(vals)
	}
	if mMax == 0 || r.free[r.firstFree] > p.LocalTime() {
		return 0
	}
	checkSideOrderFor(w.f.name, p, &w.lastWriteDate, "write")
	q0 := r.firstFree
	m, end := tryRunDates(r.ins, r.free, q0, mMax, p.LocalTime(), per)
	w.commitRun(p, vals[:m], q0, m, end, 0)
	return m
}

// writeRun executes one bulk write run over the credit window; 0 iff the
// window is exhausted.
func (w *ShardedWriter[T]) writeRun(p *sim.Process, vals []T, per sim.Time, incFirst bool) int {
	r := &w.cells
	d := len(r.ins)
	m := d - r.nBusy
	if m == 0 {
		return 0
	}
	if m > len(vals) {
		m = len(vals)
	}
	checkSideOrderFor(w.f.name, p, &w.lastWriteDate, "write")
	q0 := r.firstFree
	end, adv := runDates(r.ins, r.free, q0, m, p.LocalTime(), per, incFirst)
	w.commitRun(p, vals[:m], q0, m, end, adv)
	return m
}

// commitRun applies a stamped write run: ring indices, stats, outbox
// staging (batched as one append per direction) and the collapsed
// writer-side event epilogue.
func (w *ShardedWriter[T]) commitRun(p *sim.Process, vals []T, q0, m int, end sim.Time, adv uint64) {
	r := &w.cells
	d := len(r.ins)
	w.outData = append(w.outData, vals...)
	n1 := d - q0
	if n1 > m {
		n1 = m
	}
	w.outIns = append(w.outIns, r.ins[q0:q0+n1]...)
	w.outIns = append(w.outIns, r.ins[:m-n1]...)
	r.firstFree = wrap(q0+m, d)
	r.nBusy += m
	w.stats.Writes += uint64(m)
	w.stats.WriterAdvances += adv
	w.lastWriteDate = end
	p.AdvanceLocalTo(end)
	w.noteWriter(p)
	now := w.k.Now()
	if r.nBusy < d {
		if fd := r.free[r.firstFree]; fd > now {
			w.notFull.NotifyAtReplace(fd)
		}
	} else if m >= 2 {
		if fd := r.free[wrap(q0+m-1, d)]; fd > now {
			w.notFull.NotifyAtReplace(fd)
		}
	}
}

// IsFull is the two-test writer rule evaluated over the credit window:
// full iff every cell is busy, or the freeing date of the first free cell
// is after the caller's local date.
func (w *ShardedWriter[T]) IsFull() bool {
	p := w.caller("IsFull")
	r := &w.cells
	if r.nBusy == len(r.ins) {
		return true
	}
	return r.free[r.firstFree] > p.LocalTime()
}

// TryWrite appends v if the endpoint is externally non-full at the
// caller's local date. Never blocks; safe from method processes.
func (w *ShardedWriter[T]) TryWrite(v T) bool {
	if w.IsFull() {
		return false
	}
	w.Write(v)
	return true
}

// NotFull is the writer-side writable-event, notified at the freeing date
// of the first available cell (as of the last exchange).
func (w *ShardedWriter[T]) NotFull() *sim.Event { return w.notFull }

// Size is the dated monitor count over the writer's mirror (§III-C rules).
func (w *ShardedWriter[T]) Size() int {
	p := w.caller("Size")
	if !p.IsMethod() {
		p.Sync()
	}
	return w.cells.datedSize(p.LocalTime())
}

// --- reader endpoint ---

// Name returns the channel name.
func (r *ShardedReader[T]) Name() string { return r.f.name }

// Depth returns the capacity in cells.
func (r *ShardedReader[T]) Depth() int { return r.cells.depth() }

// Kernel returns the kernel owning this endpoint.
func (r *ShardedReader[T]) Kernel() *sim.Kernel { return r.k }

func (r *ShardedReader[T]) caller(op string) *sim.Process {
	p := r.k.Current()
	if p == nil {
		panic(fmt.Sprintf("core: %s: %s outside a process", r.f.name, op))
	}
	return p
}

// noteReader records the reading process for the frontier refinement.
func (r *ShardedReader[T]) noteReader(p *sim.Process) {
	if r.reader == nil {
		r.reader = p
	} else if r.reader != p {
		r.multiReader = true
	}
}

// Read pops the oldest delivered value, exactly like SmartFIFO.Read: park
// (after synchronizing) only when nothing has been delivered; otherwise
// advance the reader's local clock to the datum's insertion date.
func (r *ShardedReader[T]) Read() T {
	p := r.caller("Read")
	checkSideOrderFor(r.f.name, p, &r.lastReadDate, "read")
	r.noteReader(p)
	rc := &r.cells
	for rc.nBusy == 0 {
		r.stats.ReaderBlocks++
		if t := p.LocalTime(); t > r.retryAt {
			r.retryAt = t
		}
		if !p.Synchronized() {
			p.Sync()
			continue
		}
		local := p.LocalTime()
		p.WaitEvent(r.cellFilled)
		p.SetLocalDate(local)
	}
	q := rc.firstBusy
	if rc.ins[q] > p.LocalTime() {
		r.stats.ReaderAdvances++
	}
	p.AdvanceLocalTo(rc.ins[q])
	v := rc.data[q]
	var zero T
	rc.data[q] = zero
	rc.free[q] = p.LocalTime()
	rc.firstBusy = (q + 1) % len(rc.ins)
	rc.nBusy--
	r.stats.Reads++
	r.lastReadDate = p.LocalTime()
	r.pendingFrees = append(r.pendingFrees, rc.free[q])
	// Reader-side external view: the next datum exists but becomes
	// visible only at its (future) insertion date.
	if rc.nBusy > 0 {
		if id := rc.ins[rc.firstBusy]; id > r.k.Now() {
			r.notEmpty.NotifyAtReplace(id)
		}
	}
	return v
}

// ReadBurst fills dst in order, advancing the reader's local clock by per
// between consecutive words (burst contract). The fast path annotates the
// freeing-date credits as runs and stages them in batches; it blocks like
// Read when nothing has been delivered.
func (r *ShardedReader[T]) ReadBurst(dst []T, per sim.Time) {
	p := r.caller("ReadBurst")
	if per < 0 {
		for i := range dst {
			if i > 0 {
				p.Inc(per)
			}
			dst[i] = r.Read()
		}
		return
	}
	first := true
	for len(dst) > 0 {
		if n := r.readRun(p, dst, per, !first); n > 0 {
			dst = dst[n:]
			first = false
			continue
		}
		if !first {
			p.Inc(per)
		}
		dst[0] = r.Read()
		dst = dst[1:]
		first = false
	}
}

// TryReadBurst pops up to len(dst) externally available words without
// blocking (burst contract) and returns the number read.
func (r *ShardedReader[T]) TryReadBurst(dst []T, per sim.Time) int {
	p := r.caller("TryReadBurst")
	if per < 0 {
		n := 0
		for i := range dst {
			if i > 0 {
				if r.IsEmpty() {
					break
				}
				p.Inc(per)
			}
			v, ok := r.TryRead()
			if !ok {
				break
			}
			dst[i] = v
			n++
		}
		return n
	}
	rc := &r.cells
	mMax := rc.nBusy
	if mMax > len(dst) {
		mMax = len(dst)
	}
	if mMax == 0 || rc.ins[rc.firstBusy] > p.LocalTime() {
		return 0
	}
	checkSideOrderFor(r.f.name, p, &r.lastReadDate, "read")
	r.noteReader(p)
	q0 := rc.firstBusy
	m, end := tryRunDates(rc.free, rc.ins, q0, mMax, p.LocalTime(), per)
	r.commitRun(p, dst[:m], q0, m, end, 0)
	return m
}

// readRun executes one bulk read run over the delivered cells; 0 iff the
// mirror is internally empty.
func (r *ShardedReader[T]) readRun(p *sim.Process, dst []T, per sim.Time, incFirst bool) int {
	rc := &r.cells
	m := rc.nBusy
	if m == 0 {
		return 0
	}
	if m > len(dst) {
		m = len(dst)
	}
	checkSideOrderFor(r.f.name, p, &r.lastReadDate, "read")
	r.noteReader(p)
	q0 := rc.firstBusy
	end, adv := runDates(rc.free, rc.ins, q0, m, p.LocalTime(), per, incFirst)
	r.commitRun(p, dst[:m], q0, m, end, adv)
	return m
}

// commitRun applies a stamped read run: payload copy-out, ring indices,
// stats, the batched freeing-date credits and the collapsed reader-side
// event epilogue.
func (r *ShardedReader[T]) commitRun(p *sim.Process, dst []T, q0, m int, end sim.Time, adv uint64) {
	rc := &r.cells
	d := len(rc.ins)
	copyOut(dst, rc.data, q0)
	n1 := d - q0
	if n1 > m {
		n1 = m
	}
	r.pendingFrees = append(r.pendingFrees, rc.free[q0:q0+n1]...)
	r.pendingFrees = append(r.pendingFrees, rc.free[:m-n1]...)
	rc.firstBusy = wrap(q0+m, d)
	rc.nBusy -= m
	r.stats.Reads += uint64(m)
	r.stats.ReaderAdvances += adv
	r.lastReadDate = end
	p.AdvanceLocalTo(end)
	now := r.k.Now()
	if rc.nBusy > 0 {
		if id := rc.ins[rc.firstBusy]; id > now {
			r.notEmpty.NotifyAtReplace(id)
		}
	} else if m >= 2 {
		if id := rc.ins[wrap(q0+m-1, d)]; id > now {
			r.notEmpty.NotifyAtReplace(id)
		}
	}
}

// IsEmpty is the two-test reader rule over delivered data: empty iff no
// cell is busy, or the insertion date of the first busy cell is after the
// caller's local date.
func (r *ShardedReader[T]) IsEmpty() bool {
	p := r.caller("IsEmpty")
	rc := &r.cells
	if rc.nBusy == 0 {
		return true
	}
	return rc.ins[rc.firstBusy] > p.LocalTime()
}

// TryRead pops the oldest delivered value if the endpoint is externally
// non-empty at the caller's local date. Never blocks; safe from method
// processes.
func (r *ShardedReader[T]) TryRead() (T, bool) {
	if r.IsEmpty() {
		var zero T
		return zero, false
	}
	return r.Read(), true
}

// NotEmpty is the reader-side readable-event, notified at the insertion
// date of the first available datum (as of the last exchange).
func (r *ShardedReader[T]) NotEmpty() *sim.Event { return r.notEmpty }

// Size is the dated monitor count over the reader's mirror (§III-C rules).
func (r *ShardedReader[T]) Size() int {
	p := r.caller("Size")
	if !p.IsMethod() {
		p.Sync()
	}
	return r.cells.datedSize(p.LocalTime())
}

// checkSideOrderFor enforces the §III non-decreasing-date discipline for a
// named channel side (shared with SmartFIFO.checkSideOrder).
func checkSideOrderFor(name string, p *sim.Process, last *sim.Time, side string) {
	t := p.LocalTime()
	if t < *last {
		panic(fmt.Sprintf(
			"core: %s: %s access by %q at local date %v after an access at %v; "+
				"each side needs non-decreasing dates (add an Arbiter if several processes share a side)",
			name, side, p.Name(), t, *last))
	}
	*last = t
}

var (
	_ fifo.WriteEnd[int] = (*ShardedWriter[int])(nil)
	_ fifo.ReadEnd[int]  = (*ShardedReader[int])(nil)
)
