package core_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/sim"
)

// A negative per is outside the burst contract's domain, and every channel
// must fail on it exactly like the literal scalar loop: word 0 moves at the
// caller's date, then the Inc before word 1 panics. These tests pin that
// parity for every production channel type and all four burst methods.

// negPerWriter and negPerReader are the channel ends under test: the
// scalar API plus the burst methods.
type negPerWriter interface {
	fifo.Writer[int]
	WriteBurst([]int, sim.Time)
	TryWriteBurst([]int, sim.Time) int
}

type negPerReader interface {
	fifo.Reader[int]
	ReadBurst([]int, sim.Time)
	TryReadBurst([]int, sim.Time) int
}

// negPerOp is one burst method on one channel end: bulk calls the channel's
// method, scalar runs the contract loop over the same end's scalar API.
type negPerOp struct {
	method       string
	bulk, scalar func(p *sim.Process, buf []int)
}

// negPerWriteOps and negPerReadOps build the four burst methods of an end.
func negPerWriteOps(w negPerWriter) []negPerOp {
	return []negPerOp{
		{"WriteBurst",
			func(p *sim.Process, buf []int) { w.WriteBurst(buf, -sim.NS) },
			func(p *sim.Process, buf []int) {
				for i, v := range buf {
					if i > 0 {
						p.Inc(-sim.NS)
					}
					w.Write(v)
				}
			}},
		{"TryWriteBurst",
			func(p *sim.Process, buf []int) { w.TryWriteBurst(buf, -sim.NS) },
			func(p *sim.Process, buf []int) {
				for i, v := range buf {
					if i > 0 {
						if w.IsFull() {
							break
						}
						p.Inc(-sim.NS)
					}
					if !w.TryWrite(v) {
						break
					}
				}
			}},
	}
}

func negPerReadOps(r negPerReader) []negPerOp {
	return []negPerOp{
		{"ReadBurst",
			func(p *sim.Process, buf []int) { r.ReadBurst(buf, -sim.NS) },
			func(p *sim.Process, buf []int) {
				for i := range buf {
					if i > 0 {
						p.Inc(-sim.NS)
					}
					buf[i] = r.Read()
				}
			}},
		{"TryReadBurst",
			func(p *sim.Process, buf []int) { r.TryReadBurst(buf, -sim.NS) },
			func(p *sim.Process, buf []int) {
				for i := range buf {
					if i > 0 {
						if r.IsEmpty() {
							break
						}
						p.Inc(-sim.NS)
					}
					v, ok := r.TryRead()
					if !ok {
						break
					}
					buf[i] = v
				}
			}},
	}
}

// negPerChan is one channel type. mk elaborates it on k with preload words
// already readable at 1 ns, and returns its ends plus a count of the words
// written and read so far. drive runs the kernel (the sharded bridge needs
// an exchange between the preload and the operation at 1 ns).
type negPerChan struct {
	name  string
	mk    func(k *sim.Kernel, preload int) (w negPerWriter, r negPerReader, moved func() (writes, reads int), drive func())
	sides string // "w", "r" or "wr": the ends under test
}

var negPerChans = []negPerChan{
	{"FIFO", func(k *sim.Kernel, preload int) (negPerWriter, negPerReader, func() (int, int), func()) {
		f := fifo.New[int](k, "f", 8)
		return f, f, sizeMoved(f.Size, preload), func() { k.Run(sim.RunForever) }
	}, "wr"},
	{"SyncFIFO", func(k *sim.Kernel, preload int) (negPerWriter, negPerReader, func() (int, int), func()) {
		f := fifo.NewSync[int](k, "f", 8)
		return f, f, sizeMoved(f.Size, preload), func() { k.Run(sim.RunForever) }
	}, "wr"},
	{"SmartFIFO", func(k *sim.Kernel, preload int) (negPerWriter, negPerReader, func() (int, int), func()) {
		f := core.NewSmart[int](k, "f", 8)
		moved := func() (int, int) {
			s := f.Stats()
			return int(s.Writes) - preload, int(s.Reads)
		}
		return f, f, moved, func() { k.Run(sim.RunForever) }
	}, "wr"},
	{"ShardedWriter", shardedNegPer, "w"},
	{"ShardedReader", shardedNegPer, "r"},
}

// sizeMoved counts moved words from an occupancy that started at preload:
// only one direction moves in a run.
func sizeMoved(size func() int, preload int) func() (int, int) {
	return func() (int, int) {
		d := size() - preload
		if d < 0 {
			return 0, -d
		}
		return d, 0
	}
}

func shardedNegPer(k *sim.Kernel, preload int) (negPerWriter, negPerReader, func() (int, int), func()) {
	f := core.NewSharded[int](k, k, "f", 8)
	moved := func() (int, int) {
		s := f.Stats()
		return int(s.Writes) - preload, int(s.Reads)
	}
	drive := func() {
		k.Run(0)
		f.Flush()
		k.Run(sim.RunForever)
	}
	return f.Writer(), f.Reader(), moved, drive
}

// negPerOutcome is everything the operation leaves observable.
type negPerOutcome struct {
	Panic         string
	Local         sim.Time
	Buf           []int
	Writes, Reads int
}

func runNegPer(c negPerChan, side string, op int, bulk bool) negPerOutcome {
	k := sim.NewKernel("neg")
	preload := 0
	if side == "r" {
		preload = 3
	}
	w, r, moved, drive := c.mk(k, preload)
	if preload > 0 {
		k.Thread("preload", func(p *sim.Process) {
			for i := 0; i < preload; i++ {
				w.Write(10 + i)
			}
		})
	}
	ops := negPerWriteOps(w)
	if side == "r" {
		ops = negPerReadOps(r)
	}
	var out negPerOutcome
	k.Thread("op", func(p *sim.Process) {
		p.Wait(sim.NS)
		buf := []int{1, 2, 3}
		if side == "r" {
			buf = []int{-1, -1, -1}
		}
		func() {
			defer func() { out.Panic = fmt.Sprint(recover()) }()
			if bulk {
				ops[op].bulk(p, buf)
			} else {
				ops[op].scalar(p, buf)
			}
		}()
		out.Local = p.LocalTime()
		out.Buf = buf
		out.Writes, out.Reads = moved()
	})
	drive()
	k.Shutdown()
	return out
}

func TestBurstNegativePerMatchesScalarLoop(t *testing.T) {
	for _, c := range negPerChans {
		for _, side := range strings.Split(c.sides, "") {
			for op := 0; op < 2; op++ {
				bulk, want := runNegPer(c, side, op, true), runNegPer(c, side, op, false)
				method := negPerWriteOps(nil)[op].method
				if side == "r" {
					method = negPerReadOps(nil)[op].method
				}
				t.Run(c.name+"/"+method, func(t *testing.T) {
					if !strings.Contains(want.Panic, "Inc with negative duration") {
						t.Fatalf("scalar loop did not panic in Inc: %q", want.Panic)
					}
					moved := want.Writes
					if side == "r" {
						moved = want.Reads
						if want.Buf[0] != 10 || want.Buf[1] != -1 {
							t.Fatalf("scalar loop read %v, want word 0 only", want.Buf)
						}
					}
					if moved != 1 {
						t.Fatalf("scalar loop moved %d words, want 1", moved)
					}
					if !reflect.DeepEqual(bulk, want) {
						t.Errorf("%s with per < 0:\n got %+v\nwant %+v (scalar loop)", method, bulk, want)
					}
				})
			}
		}
	}
}
