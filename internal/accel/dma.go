package accel

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/fifo"
	"repro/internal/sim"
)

// DMA register indices.
const (
	// DMARegCtrl starts a transfer when written with 1.
	DMARegCtrl = 0
	// DMARegWords holds the transfer length in words.
	DMARegWords = 1
	// DMARegAddr holds the memory word address.
	DMARegAddr = 2
	// DMARegStatus reads 1 while a transfer is running.
	DMARegStatus = 3
	// DMARegJobsDone counts completed transfers.
	DMARegJobsDone = 4
	// DMANumRegs is the register file size.
	DMANumRegs = 5
)

// Direction selects what a DMA engine does.
type Direction int

const (
	// MemToStream reads memory and produces a word stream.
	MemToStream Direction = iota
	// StreamToMem consumes a word stream and writes memory.
	StreamToMem
)

// String names the direction.
func (d Direction) String() string {
	if d == MemToStream {
		return "mem-to-stream"
	}
	return "stream-to-mem"
}

// DMAConfig parameterizes a DMA engine.
type DMAConfig struct {
	// Dir is the transfer direction.
	Dir Direction
	// Channel is the stream side.
	Channel fifo.Channel[uint32]
	// Bus is the memory side.
	Bus *bus.Bus
	// Quantum decouples the bus side (TLM-2.0 style).
	Quantum sim.Time
	// WordLat is the per-word streaming latency.
	WordLat sim.Time
	// ChunkWords is the burst length per bus transaction.
	ChunkWords int
	// IRQ, if non-nil, receives a Raise(IRQLine) at each transfer
	// completion.
	IRQ *bus.IRQController
	// IRQLine is the interrupt line to raise.
	IRQLine int
}

// DMA is a bus-mastering stream engine: the piece that connects the
// memory-mapped half of the SoC (decoupled with a quantum keeper, §II-A)
// to the FIFO-based half (decoupled with Smart FIFOs, §III).
type DMA struct {
	k    *sim.Kernel
	name string
	cfg  DMAConfig

	regs  *bus.RegisterFile
	start *sim.Event

	pendingJobs int
	busy        bool
	jobsDone    uint32
	jobDates    []sim.Time

	proc *sim.Process
}

// NewDMA creates a DMA engine and registers its thread process.
func NewDMA(k *sim.Kernel, name string, cfg DMAConfig) *DMA {
	if cfg.Channel == nil || cfg.Bus == nil {
		panic(fmt.Sprintf("accel: dma %s: needs both a channel and a bus", name))
	}
	if cfg.ChunkWords <= 0 {
		cfg.ChunkWords = 16
	}
	d := &DMA{
		k:     k,
		name:  name,
		cfg:   cfg,
		regs:  bus.NewRegisterFile(DMANumRegs, sim.NS),
		start: sim.NewEvent(k, name+".start"),
	}
	d.regs.OnWrite = func(p *sim.Process, idx int, v uint32) bool {
		if idx == DMARegCtrl && v == 1 {
			d.pendingJobs++
			d.start.Notify()
			return false
		}
		return true
	}
	d.regs.OnRead = func(p *sim.Process, idx int) (uint32, bool) {
		switch idx {
		case DMARegStatus:
			if d.busy || d.pendingJobs > 0 {
				return 1, true
			}
			return 0, true
		case DMARegJobsDone:
			return d.jobsDone, true
		}
		return 0, false
	}
	d.proc = k.Thread(name, d.run)
	return d
}

// Name returns the engine name.
func (d *DMA) Name() string { return d.name }

// Regs returns the register file to map onto a bus.
func (d *DMA) Regs() *bus.RegisterFile { return d.regs }

// JobsDone returns the number of completed transfers.
func (d *DMA) JobsDone() uint32 { return d.jobsDone }

// JobDates returns the local completion date of every finished transfer.
func (d *DMA) JobDates() []sim.Time { return d.jobDates }

func (d *DMA) run(p *sim.Process) {
	in := bus.NewInitiator(p, d.cfg.Bus, d.cfg.Quantum)
	buf := make([]uint32, d.cfg.ChunkWords)
	for {
		for d.pendingJobs == 0 {
			// See accel.run: re-check after Sync so a start
			// command landing mid-sync is not lost.
			if !p.Synchronized() {
				p.Sync()
				continue
			}
			p.WaitEvent(d.start)
		}
		d.pendingJobs--
		d.busy = true
		words := int(d.regs.Get(DMARegWords))
		addr := d.regs.Get(DMARegAddr)
		for done := 0; done < words; {
			n := d.cfg.ChunkWords
			if words-done < n {
				n = words - done
			}
			chunk := buf[:n]
			// Stream-side chunks move through the bulk burst APIs;
			// the Inc placement makes each chunk date-identical to
			// the scalar per-word loop (see accel.Accel.job).
			switch d.cfg.Dir {
			case MemToStream:
				in.ReadBurst(addr+uint32(done), chunk)
				p.Inc(d.cfg.WordLat)
				d.cfg.Channel.WriteBurst(chunk, d.cfg.WordLat)
			case StreamToMem:
				d.cfg.Channel.ReadBurst(chunk, d.cfg.WordLat)
				p.Inc(d.cfg.WordLat)
				in.WriteBurst(addr+uint32(done), chunk)
			}
			done += n
		}
		d.busy = false
		d.jobsDone++
		d.jobDates = append(d.jobDates, p.LocalTime())
		if d.cfg.IRQ != nil {
			d.cfg.IRQ.Raise(d.cfg.IRQLine)
		}
	}
}
