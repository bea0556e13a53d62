package fifo

import "repro/internal/sim"

// Burst transfers. Every Reader and Writer moves whole bursts: word 0 at
// the caller's current local date, per of local time advanced between
// consecutive words. The four functions below are the contract's
// definition — the scalar loops every burst method must be bit-identical
// to. Channels that can batch (FIFO here, the Smart FIFO and the bridge
// endpoints in internal/core) implement run-based fast paths and fall back
// to these loops only where batching has nothing to offer: a negative per,
// which must land word 0 and then panic in Inc like the loop does, and
// fault injection. SyncFIFO, whose defining property is one
// synchronization per access, uses them as its burst methods.

// ScalarWriteBurst is the WriteBurst contract: Write each word, with an
// Inc(per) before every word but the first.
func ScalarWriteBurst[T any](p *sim.Process, w Writer[T], vals []T, per sim.Time) {
	for i, v := range vals {
		if i > 0 {
			p.Inc(per)
		}
		w.Write(v)
	}
}

// ScalarReadBurst is the ReadBurst contract, symmetric to
// ScalarWriteBurst.
func ScalarReadBurst[T any](p *sim.Process, r Reader[T], dst []T, per sim.Time) {
	for i := range dst {
		if i > 0 {
			p.Inc(per)
		}
		dst[i] = r.Read()
	}
}

// ScalarTryWriteBurst is the TryWriteBurst contract: TryWrite each word
// and stop at the first refusal; before every word but the first, stop if
// IsFull at the previous word's date, else Inc(per). It returns the number
// of words written.
func ScalarTryWriteBurst[T any](p *sim.Process, w Writer[T], vals []T, per sim.Time) int {
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

// ScalarTryReadBurst is the TryReadBurst contract, symmetric to
// ScalarTryWriteBurst. It returns the number of words read.
func ScalarTryReadBurst[T any](p *sim.Process, r Reader[T], dst []T, per sim.Time) int {
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

// --- FIFO native bursts ---

// A regular FIFO has no cell timestamps, so its bulk path is pure ring
// movement: payload moves with copy (≤ 2 contiguous segments), the local
// clock advances by the lumped inter-word total, and the per-word delta
// notifications collapse to one per run (NotifyDelta is idempotent while
// pending, and nothing can observe the intermediate states — the scalar
// loop never yields between non-blocking words).

// WriteBurst writes vals under the burst contract, blocking like Write
// while the FIFO is full.
func (f *FIFO[T]) WriteBurst(vals []T, per sim.Time) {
	p := f.caller("WriteBurst")
	if per < 0 {
		ScalarWriteBurst(p, f, vals, per)
		return
	}
	first := true
	for len(vals) > 0 {
		m := len(f.buf) - f.n
		if m == 0 {
			if !first {
				p.Inc(per)
			}
			f.Write(vals[0])
			vals = vals[1:]
			first = false
			continue
		}
		if m > len(vals) {
			m = len(vals)
		}
		inc := m - 1
		if !first {
			inc = m
		}
		p.Inc(sim.Time(inc) * per)
		f.pushBulk(vals[:m])
		vals = vals[m:]
		first = false
	}
}

// ReadBurst fills dst under the burst contract, blocking like Read while
// the FIFO is empty.
func (f *FIFO[T]) ReadBurst(dst []T, per sim.Time) {
	p := f.caller("ReadBurst")
	if per < 0 {
		ScalarReadBurst(p, f, dst, per)
		return
	}
	first := true
	for len(dst) > 0 {
		m := f.n
		if m == 0 {
			if !first {
				p.Inc(per)
			}
			dst[0] = f.Read()
			dst = dst[1:]
			first = false
			continue
		}
		if m > len(dst) {
			m = len(dst)
		}
		inc := m - 1
		if !first {
			inc = m
		}
		p.Inc(sim.Time(inc) * per)
		f.popBulk(dst[:m])
		dst = dst[m:]
		first = false
	}
}

// TryWriteBurst writes up to len(vals) words without blocking and returns
// the number written.
func (f *FIFO[T]) TryWriteBurst(vals []T, per sim.Time) int {
	p := f.caller("TryWriteBurst")
	if per < 0 {
		return ScalarTryWriteBurst(p, f, vals, per)
	}
	m := len(f.buf) - f.n
	if m > len(vals) {
		m = len(vals)
	}
	if m == 0 {
		return 0
	}
	p.Inc(sim.Time(m-1) * per)
	f.pushBulk(vals[:m])
	return m
}

// TryReadBurst pops up to len(dst) words without blocking and returns the
// number read.
func (f *FIFO[T]) TryReadBurst(dst []T, per sim.Time) int {
	p := f.caller("TryReadBurst")
	if per < 0 {
		return ScalarTryReadBurst(p, f, dst, per)
	}
	m := f.n
	if m > len(dst) {
		m = len(dst)
	}
	if m == 0 {
		return 0
	}
	p.Inc(sim.Time(m-1) * per)
	f.popBulk(dst[:m])
	return m
}

// pushBulk appends vals (which must fit) and notifies once.
func (f *FIFO[T]) pushBulk(vals []T) {
	tail := (f.head + f.n) % len(f.buf)
	n1 := len(f.buf) - tail
	if n1 > len(vals) {
		n1 = len(vals)
	}
	copy(f.buf[tail:tail+n1], vals[:n1])
	copy(f.buf, vals[n1:])
	f.n += len(vals)
	f.notEmpty.NotifyDelta()
}

// popBulk moves the oldest len(dst) words (which must exist) into dst,
// zeroes the vacated cells and notifies once.
func (f *FIFO[T]) popBulk(dst []T) {
	n1 := len(f.buf) - f.head
	if n1 > len(dst) {
		n1 = len(dst)
	}
	copy(dst[:n1], f.buf[f.head:f.head+n1])
	clear(f.buf[f.head : f.head+n1])
	copy(dst[n1:], f.buf)
	clear(f.buf[:len(dst)-n1])
	f.head = (f.head + len(dst)) % len(f.buf)
	f.n -= len(dst)
	f.notFull.NotifyDelta()
}

// --- SyncFIFO bursts ---

// The sync-on-every-access baseline cannot batch: its defining property is
// one synchronization per access. Its burst methods are the scalar
// contract loops, so model code using the burst vocabulary keeps the
// baseline's exact per-word behavior.

// WriteBurst writes vals under the burst contract, synchronizing on every
// word like Write.
func (f *SyncFIFO[T]) WriteBurst(vals []T, per sim.Time) {
	ScalarWriteBurst(f.inner.caller("WriteBurst"), f, vals, per)
}

// ReadBurst fills dst under the burst contract, synchronizing on every
// word like Read.
func (f *SyncFIFO[T]) ReadBurst(dst []T, per sim.Time) {
	ScalarReadBurst(f.inner.caller("ReadBurst"), f, dst, per)
}

// TryWriteBurst writes up to len(vals) words without blocking, one
// synchronized TryWrite per word.
func (f *SyncFIFO[T]) TryWriteBurst(vals []T, per sim.Time) int {
	return ScalarTryWriteBurst(f.inner.caller("TryWriteBurst"), f, vals, per)
}

// TryReadBurst pops up to len(dst) words without blocking, one
// synchronized TryRead per word.
func (f *SyncFIFO[T]) TryReadBurst(dst []T, per sim.Time) int {
	return ScalarTryReadBurst(f.inner.caller("TryReadBurst"), f, dst, per)
}
