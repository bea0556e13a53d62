package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// The bridge endpoints' monitor and external-event views: Size, IsEmpty
// and NotEmpty on the reader endpoint, Size, IsFull and NotFull on the
// writer endpoint. One depth-4 schedule runs over a two-kernel
// ShardedFIFO exchanged every nanosecond, and over a one-kernel SmartFIFO.
//
// Writer: Inc 10 ns before words 0–3 (insertion dates 10, 20, 30, 40),
// then Inc 1 ns before words 4 and 5; word 4 finds the ring full, so the
// writer synchronizes at 41 and resumes once credits are back: insertion
// dates 41, 42. Reader: synchronized at 15, then Inc 15 ns between reads:
// freeing dates 15, 30, 45, 60 (all popped at global 15), then it parks
// at 75 and pops words 4 and 5 at 75 and 90.
var (
	viewsDepth    = 4
	viewsIns      = []sim.Time{10 * sim.NS, 20 * sim.NS, 30 * sim.NS, 40 * sim.NS, 41 * sim.NS, 42 * sim.NS}
	viewsFree     = []sim.Time{15 * sim.NS, 30 * sim.NS, 45 * sim.NS, 60 * sim.NS, 75 * sim.NS, 90 * sim.NS}
	viewsProbesAt = []sim.Time{7 * sim.NS, 12 * sim.NS, 33 * sim.NS, 43 * sim.NS, 50 * sim.NS, 65 * sim.NS, 80 * sim.NS, 95 * sim.NS}

	// §III-B two-test rules over the internal state at each probe date.
	// IsEmpty: true at 7 (first insertion date 10 is in the future), at
	// 33 (words 0–3 already popped at global 15) and from 80 on (words 4
	// and 5 popped at global 75).
	viewsEmpty = []bool{true, false, true, false, false, false, true, true}
	// IsFull: true while words 0–3 hold every cell (7, 12), and at 43,
	// where two cells are free but the first of them frees only at 45.
	viewsFull = []bool{true, true, false, true, false, false, false, false}
	// NotEmpty fires at the first insertion date (10), at the insertion
	// date of the last word popped ahead at 15 (40: the FIFO held it
	// externally from 40 to 60), and when word 4 refills the empty ring
	// (41). NotFull fires at the first freeing date of the full ring (15)
	// and at 45, the freeing date of the next free cell after word 5.
	viewsNotEmpty = []sim.Time{10 * sim.NS, 40 * sim.NS, 41 * sim.NS}
	viewsNotFull  = []sim.Time{15 * sim.NS, 45 * sim.NS}
)

// viewsSize is the §III-C occupancy of the real FIFO at date t: the words
// inserted at or before t and not yet freed.
func viewsSize(t sim.Time) int {
	n := 0
	for i := range viewsIns {
		if viewsIns[i] <= t && viewsFree[i] > t {
			n++
		}
	}
	return n
}

// viewsLog is what one side observed.
type viewsLog struct {
	dates  []sim.Time // insertion (writer) or freeing (reader) date per word
	sizes  []int
	tests  []bool // IsFull (writer) or IsEmpty (reader) per probe
	events []sim.Time
}

// viewsEnd is the part of a channel end the schedule drives.
type viewsEnd struct {
	write   func(int)
	read    func() int
	size    func() int
	isFull  func() bool
	isEmpty func() bool
	notFull *sim.Event
	notEmp  *sim.Event
}

// viewsBuild elaborates the schedule: the writer side and its observers on
// kw, the reader side and its observers on kr.
func viewsBuild(kw, kr *sim.Kernel, w, r viewsEnd, wl, rl *viewsLog) {
	kw.Thread("writer", func(p *sim.Process) {
		for i := range viewsIns {
			if i < viewsDepth {
				p.Inc(10 * sim.NS)
			} else {
				p.Inc(sim.NS)
			}
			w.write(i)
			wl.dates = append(wl.dates, p.LocalTime())
		}
	})
	kr.Thread("reader", func(p *sim.Process) {
		p.Wait(15 * sim.NS)
		for i := range viewsFree {
			if i > 0 {
				p.Inc(15 * sim.NS)
			}
			if v := r.read(); v != i {
				panic(fmt.Sprintf("read %d, want %d", v, i))
			}
			rl.dates = append(rl.dates, p.LocalTime())
		}
	})
	probe := func(p *sim.Process, size func() int, test func() bool, l *viewsLog) {
		for _, at := range viewsProbesAt {
			p.Wait(at - p.LocalTime())
			l.sizes = append(l.sizes, size())
			l.tests = append(l.tests, test())
		}
	}
	kw.Thread("wmon", func(p *sim.Process) { probe(p, w.size, w.isFull, wl) })
	kr.Thread("rmon", func(p *sim.Process) { probe(p, r.size, r.isEmpty, rl) })
	kw.MethodNoInit("wev", func(p *sim.Process) { wl.events = append(wl.events, kw.Now()) }, w.notFull)
	kr.MethodNoInit("rev", func(p *sim.Process) { rl.events = append(rl.events, kr.Now()) }, r.notEmp)
}

func TestShardedEndpointViews(t *testing.T) {
	var sizes []int
	for _, at := range viewsProbesAt {
		sizes = append(sizes, viewsSize(at))
	}
	wantW := viewsLog{dates: viewsIns, sizes: sizes, tests: viewsFull, events: viewsNotFull}
	wantR := viewsLog{dates: viewsFree, sizes: sizes, tests: viewsEmpty, events: viewsNotEmpty}

	// Two kernels, driven in 1 ns rounds with an exchange after each.
	kw, kr := sim.NewKernel("views.w"), sim.NewKernel("views.r")
	f := core.NewSharded[int](kw, kr, "f", viewsDepth)
	fw, fr := f.Writer(), f.Reader()
	var bw, br viewsLog
	viewsBuild(kw, kr,
		viewsEnd{write: fw.Write, size: fw.Size, isFull: fw.IsFull, notFull: fw.NotFull()},
		viewsEnd{read: fr.Read, size: fr.Size, isEmpty: fr.IsEmpty, notEmp: fr.NotEmpty()},
		&bw, &br)
	for at := sim.NS; at <= 100*sim.NS; at += sim.NS {
		kw.Run(at)
		kr.Run(at)
		f.Flush()
	}
	kw.Shutdown()
	kr.Shutdown()

	// The same schedule over a one-kernel SmartFIFO.
	k := sim.NewKernel("views")
	s := core.NewSmart[int](k, "s", viewsDepth)
	var sw, sr viewsLog
	viewsBuild(k, k,
		viewsEnd{write: s.Write, size: s.Size, isFull: s.IsFull, notFull: s.NotFull()},
		viewsEnd{read: s.Read, size: s.Size, isEmpty: s.IsEmpty, notEmp: s.NotEmpty()},
		&sw, &sr)
	k.Run(sim.RunForever)
	k.Shutdown()

	for _, c := range []struct {
		name      string
		got, want viewsLog
	}{
		{"ShardedWriter", bw, wantW},
		{"ShardedReader", br, wantR},
		{"SmartFIFO writer side", sw, wantW},
		{"SmartFIFO reader side", sr, wantR},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, c.got, c.want)
		}
	}
	if f.Stats() != s.Stats() {
		t.Errorf("stats: bridge %+v, SmartFIFO %+v", f.Stats(), s.Stats())
	}
}
