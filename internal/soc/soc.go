// Package soc assembles the case-study system of paper §IV-C: a
// heterogeneous many-core SoC model with
//
//   - a memory-mapped side (control core, shared memory, DMA engines,
//     register files on a bus) temporally decoupled with quantum keepers,
//     the "existing methods" for memory-mapped transactions;
//   - a stream side: accelerator pipelines (decoupled threads) connected
//     by hardwired FIFOs, some hops crossing a stream NoC whose routers
//     are non-decoupled method processes and whose network interfaces
//     packetize via the Smart FIFO's non-blocking interface;
//   - embedded control software (a bus-mastering thread) that programs
//     jobs, polls status registers and reads FIFO fill levels through the
//     monitor interface for dynamic performance tuning.
//
// The same model builds with Smart FIFOs or with sync-on-every-access
// FIFOs (identical timing accuracy, §IV-C baseline); Run reports wall
// time, kernel statistics and dated results so callers can reproduce the
// paper's 42.3% speedup comparison and verify that the two builds agree
// date for date.
package soc

import (
	"context"
	"fmt"
	"time"

	"repro/internal/accel"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/netlist"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FIFOMode selects the accelerator channel implementation.
type FIFOMode int

const (
	// SmartFIFOs uses the paper's contribution.
	SmartFIFOs FIFOMode = iota
	// SyncFIFOs uses regular FIFOs that synchronize on every access:
	// same accuracy, one context switch per access (the §IV-C baseline).
	SyncFIFOs
)

// String names the mode.
func (m FIFOMode) String() string {
	if m == SmartFIFOs {
		return "smart"
	}
	return "sync"
}

// Config sizes the SoC and its workload.
type Config struct {
	// Mode selects the accelerator FIFO implementation.
	Mode FIFOMode
	// Pipelines is the number of accelerator chains (≥ 1).
	Pipelines int
	// Jobs is the number of job rounds the control core runs.
	Jobs int
	// WordsPerJob is the stream length per job (must be a multiple of
	// NoCPacketLen when UseNoC).
	WordsPerJob int
	// FIFODepth is the accelerator FIFO depth.
	FIFODepth int
	// UseNoC routes the middle hop of odd pipelines through the mesh.
	UseNoC bool
	// NoCPacketLen is the NI packet size in words.
	NoCPacketLen int
	// Quantum is the memory-mapped side's global quantum.
	Quantum sim.Time
	// PollPeriod is the control core's status/level polling period (also
	// the interrupt-wait timeout in IRQ mode).
	PollPeriod sim.Time
	// Partitioner names the netlist partitioner for RunClustered
	// ("single", "roundrobin" — the default — or "mincut"). Run ignores
	// it: the single-SoC model is one colocation unit.
	Partitioner string
	// UseIRQ makes the control core sleep on an interrupt controller
	// instead of polling status registers; accelerator sinks and the DMA
	// writer raise lines at job completion.
	UseIRQ bool
	// WithDMA adds a memory-to-memory DMA pipeline exercising the bus.
	WithDMA bool
	// Seed feeds the generators.
	Seed int64
}

func (c *Config) fill() {
	if c.Pipelines == 0 {
		c.Pipelines = 4
	}
	if c.Jobs == 0 {
		c.Jobs = 3
	}
	if c.WordsPerJob == 0 {
		c.WordsPerJob = 256
	}
	if c.FIFODepth == 0 {
		c.FIFODepth = 8
	}
	if c.NoCPacketLen == 0 {
		c.NoCPacketLen = 8
	}
	if c.Quantum == 0 {
		c.Quantum = 500 * sim.NS
	}
	if c.PollPeriod == 0 {
		c.PollPeriod = 200 * sim.NS
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.UseNoC && c.WordsPerJob%c.NoCPacketLen != 0 {
		panic(fmt.Sprintf("soc: WordsPerJob (%d) must be a multiple of NoCPacketLen (%d)",
			c.WordsPerJob, c.NoCPacketLen))
	}
}

// Result reports one SoC run.
type Result struct {
	// Mode echoes the configuration.
	Mode FIFOMode
	// Wall is the host duration of Kernel.Run.
	Wall time.Duration
	// SimEnd is the last job completion date across all sinks.
	SimEnd sim.Time
	// Checksums holds one checksum per pipeline sink (plus the DMA
	// output checksum last, when WithDMA).
	Checksums []uint64
	// JobDates holds, per pipeline, the sink's dated job completions;
	// identical across modes iff the timing is accurate.
	JobDates [][]sim.Time
	// MaxLevels holds the maximum FIFO fill level the control software
	// observed per pipeline (the §III-C monitor use case).
	MaxLevels []uint32
	// Stats are the kernel counters (ContextSwitches is the §IV-C
	// quantity).
	Stats sim.Stats
	// BusAccesses counts routed bus transactions.
	BusAccesses uint64
	// NoC reports mesh activity (zero when !UseNoC).
	NoC noc.Stats
	// Shards is the number of kernels the run was partitioned over (1
	// for Run); Advances is the number of coordinator kernel advances
	// (0 for Run — interleaving-dependent telemetry, not model output);
	// Crossings counts the channels elaborated as cross-shard bridges
	// (0 for Run). See RunClustered.
	Shards    int
	Advances  uint64
	Crossings int
}

// pipeline groups the per-chain bookkeeping.
type pipeline struct {
	gen, scale, fir, sink *accel.Accel
	regBase               uint32
}

// Run builds and executes the SoC once. The model is declared as an
// internal/netlist graph — the fabric (bus, NoC, IRQ controller), every
// accelerator and the DMA engines are modules, the stream hops are
// netlist channels — and elaborated onto one kernel: the whole SoC is a
// single colocation unit, because the bus couples the control core to
// every register file synchronously.
func Run(cfg Config) Result {
	res, err := RunCtx(context.Background(), cfg)
	if err != nil {
		// Unreachable: only a guarded abort errors, and a background
		// context with no stall window never aborts.
		panic(fmt.Sprintf("soc: %v", err))
	}
	return res
}

// RunCtx is Run under the par supervisor: the run is interrupted when
// ctx ends or the stall watchdog it carries (par.WithStallWindow)
// fires, returning the guard's error with all model goroutines shut
// down.
func RunCtx(ctx context.Context, cfg Config) (Result, error) {
	cfg.fill()
	g := netlist.New("soc")
	impl := netlist.Smart
	if cfg.Mode == SyncFIFOs {
		impl = netlist.Sync
	}

	// Shared fabric state, populated by the module elaboration hooks in
	// declaration order (fabric first).
	var b *bus.Bus
	var mesh *noc.Mesh
	var irq *bus.IRQController
	var mem *bus.Memory
	const irqBase = 0xf00
	const memBase, memSize = 0x100000, 16384

	// NI attachments requested by the pipeline declarations below; the
	// fabric elaboration performs them (the NIs belong to the mesh).
	type niReq struct {
		name string
		x, y int
		src  *netlist.InPort[uint32]
		dst  *netlist.OutPort[uint32]
		dstX int // ingress destination router coordinates
		dstY int
	}
	var niReqs []niReq

	fabric := g.Structural("fabric", nil).InGroup("soc")
	fabric.Elab(func(k *sim.Kernel) {
		b = bus.NewBus(k, "bus", sim.NS)
		// Stream NoC: one column per pipeline, two rows; odd pipelines
		// send their middle hop to the neighbouring column's bottom row,
		// forcing X-then-Y routing and shared links.
		if cfg.UseNoC {
			mesh = noc.NewMesh(k, "noc", noc.Config{
				Width:     cfg.Pipelines,
				Height:    2,
				Cycle:     sim.NS,
				FIFODepth: 4,
			})
			for _, rq := range niReqs {
				nicfg := noc.NIConfig{PacketLen: cfg.NoCPacketLen, Cycle: sim.NS}
				if rq.src != nil {
					nicfg.Dst = mesh.RouterIndex(rq.dstX, rq.dstY)
					mesh.AttachNI(rq.name, rq.x, rq.y, rq.src.End(), nil, nicfg)
				} else {
					mesh.AttachNI(rq.name, rq.x, rq.y, nil, rq.dst.End(), nicfg)
				}
			}
		}
		// Interrupt controller: sink of pipeline i raises line i, the
		// DMA writer raises line cfg.Pipelines.
		if cfg.UseIRQ {
			irq = bus.NewIRQController(k, "irq")
			b.Map("irq", irqBase, bus.IRQNumRegs, irq)
		}
	})

	// Accelerator pipelines: generator → scale → (NoC) → fir → sink.
	// Each accelerator is a structural module holding one end of its
	// stream channels; the channels are netlist channels, so the same
	// declaration would shard if the colocation allowed it.
	pipes := make([]*pipeline, cfg.Pipelines)
	regBase := uint32(0x1000)
	for i := range pipes {
		i := i
		name := func(s string) string { return fmt.Sprintf("p%d.%s", i, s) }
		p := &pipeline{regBase: regBase}
		pipes[i] = p
		base := regBase

		c1 := netlist.AddChan[uint32](g, name("c1"), cfg.FIFODepth)
		var midOut netlist.OutPort[uint32] // written by scale
		var midIn netlist.InPort[uint32]   // read by fir
		genMod := g.Structural(name("gen"), nil).InGroup("soc")
		scaleMod := g.Structural(name("scale"), nil).InGroup("soc")
		firMod := g.Structural(name("fir"), nil).InGroup("soc")
		sinkMod := g.Structural(name("sink"), nil).InGroup("soc")
		c1Out, c1In := c1.Output(genMod), c1.Input(scaleMod)
		if cfg.UseNoC && i%2 == 1 {
			a := netlist.AddChan[uint32](g, name("toNoC"), cfg.FIFODepth).WithBurst(cfg.NoCPacketLen)
			z := netlist.AddChan[uint32](g, name("fromNoC"), cfg.FIFODepth).WithBurst(cfg.NoCPacketLen)
			midOut = a.Output(scaleMod)
			toNoC := a.Input(fabric)
			fromNoC := z.Output(fabric)
			midIn = z.Input(firMod)
			niReqs = append(niReqs,
				niReq{name: name("ni.in"), x: i, y: 0, src: &toNoC,
					dstX: (i + 1) % cfg.Pipelines, dstY: 1},
				niReq{name: name("ni.out"), x: (i + 1) % cfg.Pipelines, y: 1, dst: &fromNoC})
		} else {
			c := netlist.AddChan[uint32](g, name("c2"), cfg.FIFODepth)
			midOut, midIn = c.Output(scaleMod), c.Input(firMod)
		}
		c3 := netlist.AddChan[uint32](g, name("c3"), cfg.FIFODepth)
		c3Out, c3In := c3.Output(firMod), c3.Input(sinkMod)

		genMod.Elab(func(k *sim.Kernel) {
			p.gen = accel.New(k, name("gen"), accel.Config{
				Kind: accel.Generator, Out: c1Out.End(), WordLat: 3 * sim.NS, Seed: cfg.Seed + int64(i),
			})
			b.Map(p.gen.Name(), base+0x00, accel.NumRegs, p.gen.Regs())
		})
		scaleMod.Elab(func(k *sim.Kernel) {
			p.scale = accel.New(k, name("scale"), accel.Config{
				Kind: accel.Scale, In: c1In.End(), Out: midOut.End(), WordLat: 2 * sim.NS, Factor: 3,
			})
			b.Map(p.scale.Name(), base+0x10, accel.NumRegs, p.scale.Regs())
		})
		firMod.Elab(func(k *sim.Kernel) {
			p.fir = accel.New(k, name("fir"), accel.Config{
				Kind: accel.FIR, In: midIn.End(), Out: c3Out.End(), WordLat: 2 * sim.NS,
			})
			b.Map(p.fir.Name(), base+0x20, accel.NumRegs, p.fir.Regs())
		})
		sinkMod.Elab(func(k *sim.Kernel) {
			p.sink = accel.New(k, name("sink"), accel.Config{
				Kind: accel.Sink, In: c3In.End(), WordLat: 4 * sim.NS,
				IRQ: irq, IRQLine: i,
			})
			b.Map(p.sink.Name(), base+0x30, accel.NumRegs, p.sink.Regs())
		})
		regBase += 0x100
	}

	// Optional memory↔memory DMA pipeline over the bus. The DMA channel
	// is internal wiring of the module (both engines live in it).
	var dmaRdBase, dmaWrBase uint32
	if cfg.WithDMA {
		dmaRdBase, dmaWrBase = regBase, regBase+0x10
		g.Structural("dma", nil).InGroup("soc").Elab(func(k *sim.Kernel) {
			mem = bus.NewMemory(memSize, sim.NS, sim.NS)
			b.Map("mem", memBase, memSize, mem)
			var ch fifo.Channel[uint32]
			if cfg.Mode == SmartFIFOs {
				ch = core.NewSmart[uint32](k, "dma.ch", cfg.FIFODepth)
			} else {
				ch = fifo.NewSync[uint32](k, "dma.ch", cfg.FIFODepth)
			}
			dmaRd := accel.NewDMA(k, "dma.rd", accel.DMAConfig{
				Dir: accel.MemToStream, Channel: ch, Bus: b,
				Quantum: cfg.Quantum, WordLat: 2 * sim.NS, ChunkWords: 16,
			})
			dmaWr := accel.NewDMA(k, "dma.wr", accel.DMAConfig{
				Dir: accel.StreamToMem, Channel: ch, Bus: b,
				Quantum: cfg.Quantum, WordLat: 2 * sim.NS, ChunkWords: 16,
				IRQ: irq, IRQLine: cfg.Pipelines,
			})
			b.Map("dma.rd", dmaRdBase, accel.DMANumRegs, dmaRd.Regs())
			b.Map("dma.wr", dmaWrBase, accel.DMANumRegs, dmaWr.Regs())
			for i := 0; i < cfg.WordsPerJob && i < memSize/2; i++ {
				mem.Poke(uint32(i), uint32(workload.WordAt(cfg.Seed+99, i)))
			}
		})
	}

	res := Result{Mode: cfg.Mode, Shards: 1, MaxLevels: make([]uint32, cfg.Pipelines)}

	// The control core: embedded software on the memory-mapped side.
	g.Thread("ctrl", func(p *sim.Process) {
		in := bus.NewInitiator(p, b, cfg.Quantum)
		words := uint32(cfg.WordsPerJob)
		for j := 0; j < cfg.Jobs; j++ {
			// Program every pipeline, consumers first.
			for _, pl := range pipes {
				for _, off := range []uint32{0x30, 0x20, 0x10, 0x00} {
					in.WriteWord(pl.regBase+off+accel.RegWords, words)
					in.WriteWord(pl.regBase+off+accel.RegCtrl, 1)
				}
			}
			if cfg.WithDMA {
				in.WriteWord(dmaWrBase+accel.DMARegWords, words)
				in.WriteWord(dmaWrBase+accel.DMARegAddr, memBase+memSize/2)
				in.WriteWord(dmaWrBase+accel.DMARegCtrl, 1)
				in.WriteWord(dmaRdBase+accel.DMARegWords, words)
				in.WriteWord(dmaRdBase+accel.DMARegAddr, memBase)
				in.WriteWord(dmaRdBase+accel.DMARegCtrl, 1)
			}
			if cfg.UseIRQ {
				// Sleep on the interrupt controller instead of
				// polling; the timeout is a lost-wakeup backstop
				// (a quantum sync between the pending check and
				// the wait could miss a one-shot notification).
				var mask uint32
				for i := 0; i < cfg.Pipelines; i++ {
					mask |= 1 << i
				}
				if cfg.WithDMA {
					mask |= 1 << cfg.Pipelines
				}
				in.WriteWord(irqBase+bus.IRQRegEnable, mask)
				for got := uint32(0); got != mask; {
					p.Sync()
					pend := in.ReadWord(irqBase + bus.IRQRegPending)
					if pend == 0 {
						p.WaitEventTimeout(irq.Event(), cfg.PollPeriod)
						continue
					}
					in.WriteWord(irqBase+bus.IRQRegPending, pend)
					got |= pend
					for i, pl := range pipes {
						lvl := in.ReadWord(pl.regBase + 0x30 + accel.RegInLevel)
						if lvl > res.MaxLevels[i] {
							res.MaxLevels[i] = lvl
						}
					}
				}
				continue
			}
			// Poll until the round completes, sampling FIFO levels
			// for dynamic performance tuning (§III-C).
			for {
				idle := true
				for i, pl := range pipes {
					if in.ReadWord(pl.regBase+0x30+accel.RegStatus) != 0 {
						idle = false
					}
					// Sample the sink's input fill level: the
					// sink is the slowest stage, so this is
					// where congestion shows.
					lvl := in.ReadWord(pl.regBase + 0x30 + accel.RegInLevel)
					if lvl > res.MaxLevels[i] {
						res.MaxLevels[i] = lvl
					}
				}
				if cfg.WithDMA && in.ReadWord(dmaWrBase+accel.DMARegStatus) != 0 {
					idle = false
				}
				if idle {
					break
				}
				p.Inc(cfg.PollPeriod)
			}
		}
		// Harvest results.
		for _, pl := range pipes {
			res.Checksums = append(res.Checksums, pl.sink.Checksum())
			res.JobDates = append(res.JobDates, pl.sink.JobDates())
		}
		if cfg.WithDMA {
			sum := uint64(0)
			buf := make([]uint32, cfg.WordsPerJob)
			in.ReadBurst(memBase+memSize/2, buf)
			for _, w := range buf {
				sum = workload.Checksum(sum, w)
			}
			res.Checksums = append(res.Checksums, sum)
		}
	})

	built, err := g.Build(netlist.Options{Shards: 1, Impl: impl})
	if err != nil {
		panic(fmt.Sprintf("soc: %v", err))
	}
	start := time.Now()
	if err := built.RunGuarded(ctx, sim.RunForever); err != nil {
		built.Shutdown()
		return Result{}, err
	}
	res.Wall = time.Since(start)
	res.Stats = built.Stats()
	res.BusAccesses = b.Accesses()
	if mesh != nil {
		res.NoC = mesh.Stats()
	}
	for _, dates := range res.JobDates {
		for _, d := range dates {
			if d > res.SimEnd {
				res.SimEnd = d
			}
		}
	}
	built.Shutdown()
	return res, nil
}
