package noc

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// NIConfig parameterizes a network interface.
type NIConfig struct {
	// PacketLen is the fixed packet size in words. Streams crossing the
	// NoC must carry a multiple of PacketLen words.
	PacketLen int
	// Cycle is the per-flit processing time of the interface.
	Cycle sim.Time
	// Dst is the destination router index for the ingress stream
	// (ignored if the NI has no ingress side).
	Dst int
}

// NI is a network interface: the §IV-C module "in charge of packetizing
// data" between a (possibly temporally decoupled) accelerator FIFO and the
// mesh. It is modeled entirely as a run-to-completion method process — the
// paper's point that the Smart FIFO's non-blocking interface makes
// SC_THREAD-free interface models possible.
//
// The ingress side collects PacketLen words from src once they are
// externally available, frames them into flits and injects one flit per
// cycle. The egress side delivers one flit per cycle from the mesh into
// dst, back-pressured by dst's external fullness.
type NI struct {
	m    *Mesh
	name string
	idx  int
	cfg  NIConfig

	// src and dst are end interfaces (rather than full Channels) so a
	// netlist build can hand the NI one endpoint of a core.ShardedFIFO
	// whose other side lives on a different kernel.
	src fifo.ReadEnd[uint32]  // accelerator → NoC (nil if egress-only)
	dst fifo.WriteEnd[uint32] // NoC → accelerator (nil if ingress-only)

	inj *fifo.FIFO[Flit]
	del *fifo.FIFO[Flit]

	assembly    []uint32 // words collected toward the current packet
	pending     []Flit   // assembled flits awaiting injection (reused)
	pendingHead int      // next flit of pending to inject
	tickArmed   bool     // a self-scheduled cycle tick is pending

	proc *sim.Process
}

// AttachNI creates a network interface on the router at (x, y). src is the
// accelerator output to packetize into the mesh (nil for an egress-only
// NI); dst is the accelerator input fed from the mesh (nil for an
// ingress-only NI).
func (m *Mesh) AttachNI(name string, x, y int, src fifo.ReadEnd[uint32], dst fifo.WriteEnd[uint32], cfg NIConfig) *NI {
	if cfg.PacketLen <= 0 {
		panic(fmt.Sprintf("noc: NI %s: non-positive packet length", name))
	}
	if cfg.Cycle <= 0 {
		cfg.Cycle = sim.NS
	}
	if src == nil && dst == nil {
		panic(fmt.Sprintf("noc: NI %s: needs at least one side", name))
	}
	idx := m.RouterIndex(x, y)
	r := m.routers[idx]
	if src != nil {
		if r.ingressNI {
			panic(fmt.Sprintf("noc: NI %s: router (%d,%d) already has an ingress NI", name, x, y))
		}
		r.ingressNI = true
	}
	if dst != nil {
		if r.egressNI {
			panic(fmt.Sprintf("noc: NI %s: router (%d,%d) already has an egress NI", name, x, y))
		}
		r.egressNI = true
	}
	ni := &NI{
		m:    m,
		name: name,
		idx:  idx,
		cfg:  cfg,
		src:  src,
		dst:  dst,
		inj:  m.injectionQueue(idx),
		del:  m.deliveryQueue(idx),
	}
	if src != nil {
		// Preallocated packet staging: the assembly buffer fills via
		// bulk TryReadBurst and the flit buffer is reused per packet,
		// so steady-state packetization allocates nothing.
		ni.assembly = make([]uint32, 0, cfg.PacketLen)
		ni.pending = make([]Flit, 0, cfg.PacketLen)
	}
	var events []*sim.Event
	if src != nil {
		events = append(events, src.NotEmpty(), ni.inj.NotFull())
	}
	if dst != nil {
		events = append(events, ni.del.NotEmpty(), dst.NotFull())
	}
	ni.proc = m.k.MethodNoInit(name, ni.step, events...)
	return ni
}

// Name returns the interface name.
func (ni *NI) Name() string { return ni.name }

// RouterIndex returns the index of the router the NI is attached to.
func (ni *NI) RouterIndex() int { return ni.idx }

// step is the NI method body, with the same cycle-boundary discipline as
// the routers: event activations arm a tick, the tick does the work, and
// both directions may each move one flit per tick. As for the routers,
// the tick is only re-armed while progress is possible; work blocked on a
// full queue idles on the static NotFull sensitivity instead of polling,
// so a deadlocked configuration quiesces instead of spinning.
func (ni *NI) step(p *sim.Process) {
	if ni.tickArmed {
		ni.tickArmed = false
		if ni.src != nil {
			ni.ingress(p)
		}
		if ni.dst != nil {
			ni.egress()
		}
	}
	if !ni.tickArmed && ni.progressPossible() {
		ni.tickArmed = true
		p.NextTrigger(ni.cfg.Cycle)
	}
}

// progressPossible reports whether a tick now would move data.
func (ni *NI) progressPossible() bool {
	if ni.src != nil {
		if ni.pendingHead < len(ni.pending) && !ni.inj.IsFull() {
			return true
		}
		if ni.pendingHead == len(ni.pending) && !ni.src.IsEmpty() {
			return true
		}
	}
	if ni.dst != nil && !ni.del.IsEmpty() && !ni.dst.IsFull() {
		return true
	}
	return false
}

// ingress assembles and injects packets; it reports whether work was done
// or blocked work remains.
//
// The Smart FIFO's NotEmpty is an edge event (it fires when the channel
// becomes externally non-empty, §III-B), so the NI must drain what is
// visible on every activation rather than poll for a level: words are
// collected into an assembly buffer as they become externally available
// (IsEmpty/TryRead evaluate availability at the method's synchronized
// activation date, so a decoupled producer's future-dated words are not
// visible early), and a packet is framed when PacketLen words have been
// gathered.
func (ni *NI) ingress(p *sim.Process) bool {
	busy := false
	if ni.pendingHead == len(ni.pending) {
		if got := len(ni.assembly); got < ni.cfg.PacketLen {
			// Bulk collection: one TryReadBurst (per = 0, the NI is
			// a synchronized method) drains every externally visible
			// word into the assembly buffer — the Smart FIFO's bulk
			// fast path instead of a TryRead per word.
			space := ni.assembly[got:ni.cfg.PacketLen]
			n := ni.src.TryReadBurst(space, 0)
			ni.assembly = ni.assembly[:got+n]
			busy = busy || n > 0
		}
		if len(ni.assembly) == ni.cfg.PacketLen {
			ni.pending = ni.pending[:0]
			ni.pendingHead = 0
			for i, w := range ni.assembly {
				ni.pending = append(ni.pending, Flit{
					Dst:  ni.cfg.Dst,
					Src:  ni.idx,
					Word: w,
					Head: i == 0,
					Tail: i == ni.cfg.PacketLen-1,
				})
			}
			ni.assembly = ni.assembly[:0]
			ni.m.stats.PacketsInjected++
		}
	}
	if ni.pendingHead < len(ni.pending) {
		// Inject one flit per cycle.
		if ni.inj.TryWrite(ni.pending[ni.pendingHead]) {
			ni.pendingHead++
		}
		busy = true
	}
	// More words already available: keep pacing ourselves — no edge
	// event will announce them again.
	if !ni.src.IsEmpty() {
		busy = true
	}
	return busy
}

// egress delivers one flit per cycle into the accelerator FIFO; it reports
// whether work was done or blocked work remains.
func (ni *NI) egress() bool {
	f, ok := ni.del.Peek()
	if !ok {
		return false
	}
	if !ni.dst.TryWrite(f.Word) {
		// Accelerator back-pressure; re-armed by dst.NotFull.
		return true
	}
	ni.del.TryRead()
	if f.Tail {
		ni.m.stats.PacketsDelivered++
	}
	return true
}
