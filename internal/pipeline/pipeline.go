// Package pipeline implements the paper's §IV-B performance benchmark: a
// simple system with three modules (source, transmitter, sink) connected
// by two FIFOs, moving a configurable number of blocks of words with
// varying data rates. The FIFO depth is a parameter, and the same model
// runs in four modes:
//
//   - Untimed: regular FIFOs, no timing annotations at all;
//   - TDless: timed, no decoupling, regular FIFOs (one context switch per
//     annotation) — the accuracy reference;
//   - TDfull: timed, temporal decoupling, Smart FIFOs — the paper's
//     contribution, same accuracy as TDless;
//   - Quantum: timed, quantum-keeper decoupling over regular FIFOs — the
//     TLM-2.0 state of the art the paper improves on; fast but introduces
//     timing errors (our ablation).
//
// The model is wired once, declaratively, as an internal/netlist graph:
// the same three module bodies build single-kernel (any mode) or
// partitioned over up to three kernels (TDfull only; the netlist inserts
// core.ShardedFIFO bridges at cut edges and drives the shards through the
// conservative coordinator). The dates are identical either way — pinned
// by TestShardedRunMatchesSingleKernel.
//
// Run returns wall time, kernel statistics and the dated per-block
// completion log, so callers can regenerate Fig. 5 and quantify accuracy.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fifo"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/td"
	"repro/internal/workload"
)

// Mode selects the timing/channel implementation of the benchmark model.
type Mode int

const (
	// Untimed uses regular FIFOs and no annotations.
	Untimed Mode = iota
	// TDless uses regular FIFOs and a context-switching Wait per
	// annotation.
	TDless
	// TDfull uses Smart FIFOs and temporal decoupling.
	TDfull
	// Quantum uses regular FIFOs and quantum-keeper decoupling.
	Quantum
)

// String names the mode as in the paper's Fig. 5 legend.
func (m Mode) String() string {
	switch m {
	case Untimed:
		return "untimed"
	case TDless:
		return "TDless"
	case TDfull:
		return "TDfull"
	case Quantum:
		return "quantum"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config parameterizes one benchmark run.
type Config struct {
	// Mode is the implementation under test.
	Mode Mode
	// Depth is the FIFO depth in cells (the Fig. 5 x-axis).
	Depth int
	// Blocks and WordsPerBlock size the workload (paper: 1000 × 1000).
	Blocks        int
	WordsPerBlock int
	// SourceRate, TransmitRate and SinkRate give the per-word periods.
	// Zero values default to the varying rates of §IV-B.
	SourceRate   workload.Rate
	TransmitRate workload.Rate
	SinkRate     workload.Rate
	// QuantumValue is the quantum for Mode == Quantum.
	QuantumValue sim.Time
	// Shards partitions the model across that many kernels run in
	// parallel by the conservative coordinator (internal/par) over
	// netlist-inserted core.ShardedFIFO bridges. 0 or 1 keeps the classic
	// single-kernel build. Only Mode == TDfull can be sharded: the
	// bridges are Smart FIFOs, and their dates are what makes the
	// partitioning conservative. Asking for more shards than the model
	// has modules (three) is an error — Run panics with a clear message
	// instead of silently clamping.
	Shards int
	// Partitioner names the netlist partitioner assigning modules to
	// shards: "single", "roundrobin" (default) or "mincut".
	Partitioner string
	// Burst, when > 1, moves words through the FIFOs in chunks of up to
	// Burst words: the burst-dominated configuration of the §IV-C
	// packetization extension. The chunked workload samples each rate
	// function once per chunk (argument = the module's chunk ordinal)
	// and applies it between consecutive words of the chunk and once
	// after it; the transmitter becomes store-and-forward per chunk.
	// Every mode implements the same chunked timing model — TDless and
	// Quantum with their per-word delayer between words, TDfull and
	// Untimed through the bulk burst fast paths — so cross-mode date
	// equivalence is preserved (pinned by TestBurstTraceEquivalence).
	// 0 or 1 keeps the word-at-a-time model.
	Burst int
	// Seed feeds the data generator.
	Seed int64
}

func (c *Config) fill() {
	if c.Blocks == 0 {
		c.Blocks = 1000
	}
	if c.WordsPerBlock == 0 {
		c.WordsPerBlock = 1000
	}
	if c.Depth == 0 {
		c.Depth = 16
	}
	// "with varying data rates": stepped periods, transmitter fastest.
	if c.SourceRate == nil {
		c.SourceRate = workload.Steps(10*sim.NS, 12*sim.NS, 8*sim.NS)
	}
	if c.TransmitRate == nil {
		c.TransmitRate = workload.Constant(7 * sim.NS)
	}
	if c.SinkRate == nil {
		c.SinkRate = workload.Steps(9*sim.NS, 13*sim.NS)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result reports one run's outcome.
type Result struct {
	// Mode and Depth echo the configuration.
	Mode  Mode
	Depth int
	// Wall is the host execution duration of Kernel.Run.
	Wall time.Duration
	// Words is the number of words transported end to end.
	Words int
	// SimEnd is the final simulated date (0 for Untimed).
	SimEnd sim.Time
	// BlockDates holds the sink's local date at each block completion
	// (empty for Untimed); comparing them across modes measures timing
	// accuracy.
	BlockDates []sim.Time
	// Checksum proves functional equality across modes.
	Checksum uint64
	// Stats are the kernel activity counters; ContextSwitches is the
	// quantity Fig. 5 is really about. For a sharded run they are
	// summed over the shards.
	Stats sim.Stats
	// Shards echoes the partitioning (1 for the single-kernel build);
	// Advances is the number of coordinator kernel advances (0 when
	// unsharded — interleaving-dependent telemetry, not model output);
	// Crossings counts the channels the netlist elaborated as
	// cross-shard bridges.
	Shards    int
	Advances  uint64
	Crossings int
}

// delayer abstracts the annotation style of a process.
type delayer func(d sim.Time)

// Run executes the benchmark once and reports the outcome. The model is
// one netlist graph for every mode and shard count; Build chooses the
// channel implementation and the partitioning.
func Run(cfg Config) Result {
	res, err := RunCtx(context.Background(), cfg)
	if err != nil {
		// Unreachable: only a guarded abort errors, and a background
		// context with no stall window never aborts.
		panic(fmt.Sprintf("pipeline: %v", err))
	}
	return res
}

// RunCtx is Run under the par supervisor: the run is interrupted when
// ctx ends or the stall watchdog it carries (par.WithStallWindow)
// fires, returning the guard's error with all model goroutines shut
// down.
func RunCtx(ctx context.Context, cfg Config) (Result, error) {
	cfg.fill()
	nShards := cfg.Shards
	if nShards < 1 {
		nShards = 1
	}
	if nShards > 1 && cfg.Mode != TDfull {
		panic(fmt.Sprintf("pipeline: mode %v cannot be sharded (only TDfull carries the Smart-FIFO dates)", cfg.Mode))
	}

	timed := cfg.Mode != Untimed
	newDelay := func(p *sim.Process) delayer {
		switch cfg.Mode {
		case Untimed:
			return func(sim.Time) {}
		case TDless:
			return p.Wait
		case TDfull:
			return p.Inc
		case Quantum:
			q := td.NewQuantumKeeper(p, cfg.QuantumValue)
			return q.Inc
		}
		panic("pipeline: unknown mode")
	}

	g := netlist.New("fig5")
	f1 := netlist.AddChan[workload.Word](g, "f1", cfg.Depth).WithBurst(cfg.Burst)
	f2 := netlist.AddChan[workload.Word](g, "f2", cfg.Depth).WithBurst(cfg.Burst)

	n := cfg.Blocks * cfg.WordsPerBlock
	res := Result{Mode: cfg.Mode, Depth: cfg.Depth, Words: n}

	// Each module records its own final local date; the simulated end
	// date is the latest (a decoupled process may terminate with its
	// local date ahead of the global clock). Per-module slots keep the
	// bodies race-free across shards.
	var ends [3]sim.Time

	src := g.Thread("source", nil)
	out1 := f1.Output(src)
	tx := g.Thread("transmitter", nil)
	in1, out2 := f1.Input(tx), f2.Output(tx)
	snk := g.Thread("sink", nil)
	in2 := f2.Input(snk)

	if cfg.Burst > 1 {
		// Burst-dominated configuration: words move in chunks through
		// the burst APIs (bulk fast paths for TDfull and Untimed, the
		// mode's per-word delayer for TDless and Quantum).
		writeChunk := func(p *sim.Process, w fifo.Writer[workload.Word], delay delayer, chunk []workload.Word, per sim.Time) {
			switch cfg.Mode {
			case TDfull:
				fifo.WriteBurst(p, w, chunk, per)
			case Untimed:
				fifo.WriteBurst(p, w, chunk, 0)
			default:
				for i, v := range chunk {
					if i > 0 {
						delay(per)
					}
					w.Write(v)
				}
			}
		}
		readChunk := func(p *sim.Process, r fifo.Reader[workload.Word], delay delayer, chunk []workload.Word, per sim.Time) {
			switch cfg.Mode {
			case TDfull:
				fifo.ReadBurst(p, r, chunk, per)
			case Untimed:
				fifo.ReadBurst(p, r, chunk, 0)
			default:
				for i := range chunk {
					if i > 0 {
						delay(per)
					}
					chunk[i] = r.Read()
				}
			}
		}
		src.Body(func(p *sim.Process) {
			delay := newDelay(p)
			w := out1.End()
			buf := make([]workload.Word, cfg.Burst)
			for i, ci := 0, 0; i < n; ci++ {
				m := min(cfg.Burst, n-i)
				per := cfg.SourceRate(ci)
				for j := 0; j < m; j++ {
					buf[j] = workload.WordAt(cfg.Seed, i+j)
				}
				writeChunk(p, w, delay, buf[:m], per)
				delay(per)
				i += m
			}
			ends[0] = p.LocalTime()
		})
		tx.Body(func(p *sim.Process) {
			delay := newDelay(p)
			r, w := in1.End(), out2.End()
			buf := make([]workload.Word, cfg.Burst)
			for i, ci := 0, 0; i < n; ci++ {
				m := min(cfg.Burst, n-i)
				per := cfg.TransmitRate(ci)
				readChunk(p, r, delay, buf[:m], per)
				delay(per)
				for j := 0; j < m; j++ {
					buf[j] ^= 0xa5a5a5a5 // the "transmission" transform
				}
				writeChunk(p, w, delay, buf[:m], per)
				delay(per)
				i += m
			}
			ends[1] = p.LocalTime()
		})
		snk.Body(func(p *sim.Process) {
			delay := newDelay(p)
			r := in2.End()
			buf := make([]workload.Word, cfg.Burst)
			sum := uint64(0)
			for i, ci := 0, 0; i < n; ci++ {
				// Chunks never straddle a block boundary, so the
				// dated block-completion log keeps its place.
				m := min(cfg.Burst, n-i, cfg.WordsPerBlock-i%cfg.WordsPerBlock)
				per := cfg.SinkRate(ci)
				readChunk(p, r, delay, buf[:m], per)
				delay(per)
				for _, w := range buf[:m] {
					sum = workload.Checksum(sum, w)
				}
				i += m
				if timed && i%cfg.WordsPerBlock == 0 {
					res.BlockDates = append(res.BlockDates, p.LocalTime())
				}
			}
			res.Checksum = sum
			ends[2] = p.LocalTime()
		})
	} else {
		src.Body(func(p *sim.Process) {
			delay := newDelay(p)
			w := out1.End()
			for i := 0; i < n; i++ {
				w.Write(workload.WordAt(cfg.Seed, i))
				delay(cfg.SourceRate(i))
			}
			ends[0] = p.LocalTime()
		})
		tx.Body(func(p *sim.Process) {
			delay := newDelay(p)
			r, w := in1.End(), out2.End()
			for i := 0; i < n; i++ {
				v := r.Read()
				delay(cfg.TransmitRate(i))
				w.Write(v ^ 0xa5a5a5a5) // the "transmission" transform
			}
			ends[1] = p.LocalTime()
		})
		snk.Body(func(p *sim.Process) {
			delay := newDelay(p)
			r := in2.End()
			sum := uint64(0)
			for i := 0; i < n; i++ {
				sum = workload.Checksum(sum, r.Read())
				delay(cfg.SinkRate(i))
				if timed && (i+1)%cfg.WordsPerBlock == 0 {
					res.BlockDates = append(res.BlockDates, p.LocalTime())
				}
			}
			res.Checksum = sum
			ends[2] = p.LocalTime()
		})
	}

	impl := netlist.Plain
	if cfg.Mode == TDfull {
		impl = netlist.Smart
	}
	part, err := netlist.PartitionerByName(cfg.Partitioner)
	if err != nil {
		panic(fmt.Sprintf("pipeline: %v", err))
	}
	b, err := g.Build(netlist.Options{Shards: nShards, Partitioner: part, Impl: impl})
	if err != nil {
		panic(fmt.Sprintf("pipeline: %v", err))
	}

	start := time.Now()
	if err := b.RunGuarded(ctx, sim.RunForever); err != nil {
		b.Shutdown()
		return Result{}, err
	}
	res.Wall = time.Since(start)
	res.Stats = b.Stats()
	res.Shards = b.Shards()
	res.Advances = b.Advances()
	res.Crossings = b.Crossings
	if timed {
		for _, e := range ends {
			if e > res.SimEnd {
				res.SimEnd = e
			}
		}
	}
	return res, nil
}

// MaxTimingError returns the largest absolute difference between the
// per-block completion dates of r and the reference ref (typically a
// TDless run): the accuracy metric of the quantum ablation. It panics if
// the runs transported different workloads.
func MaxTimingError(ref, r Result) sim.Time {
	if len(ref.BlockDates) != len(r.BlockDates) {
		panic("pipeline: incomparable results")
	}
	var max sim.Time
	for i := range ref.BlockDates {
		d := r.BlockDates[i] - ref.BlockDates[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
