// Command socbench regenerates the paper's §IV-C case study: the
// heterogeneous many-core SoC model (control core + bus + memory + DMA +
// accelerator pipelines + stream NoC) run twice — once with
// sync-on-every-access FIFOs, once with Smart FIFOs — at identical timing
// accuracy, reporting the wall-time gain. The paper measured 38.0 s →
// 21.9 s, a 42.3% gain; the claim to check here is a substantial gain at
// zero timing difference ("dates equal: true").
//
// With -shards=N it additionally runs the clustered variant of the model
// (soc.RunClustered) on 1 kernel and on N kernels, checks that the job
// dates and checksums are identical, and reports the parallel speedup:
// the conservative multi-kernel execution over Smart-FIFO dates.
//
// Output is human-readable by default, CSV with -csv, or a single JSON
// document with -json, so perf trajectories can be recorded across PRs
// (BENCH_socbench.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/campaign"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/soc"
)

// runJSON is one measurement in the -json document (and one CSV row).
type runJSON struct {
	Mode        string  `json:"mode"`
	WallMS      float64 `json:"wall_ms"`
	CtxSwitches uint64  `json:"ctx_switches"`
	SimEndNS    int64   `json:"sim_end_ns"`
}

// shardedJSON reports the -shards comparison.
type shardedJSON struct {
	Shards      int     `json:"shards"`
	Partitioner string  `json:"partitioner"`
	Crossings   int     `json:"crossings"`
	Single      runJSON `json:"single"`
	Sharded     runJSON `json:"sharded"`
	// Advances counts coordinator kernel advances in the sharded run —
	// scheduler telemetry (interleaving-dependent under the async
	// coordinator), reported for scale, never compared.
	Advances   uint64  `json:"advances"`
	SpeedupX   float64 `json:"speedup_x"`
	DatesEqual bool    `json:"dates_equal"`
}

// reportJSON is the -json document.
type reportJSON struct {
	Pipelines      int          `json:"pipelines"`
	Jobs           int          `json:"jobs"`
	WordsPerJob    int          `json:"words_per_job"`
	FIFODepth      int          `json:"fifo_depth"`
	UseNoC         bool         `json:"use_noc"`
	WithDMA        bool         `json:"with_dma"`
	Sync           runJSON      `json:"sync"`
	Smart          runJSON      `json:"smart"`
	GainPct        float64      `json:"gain_pct"`
	DatesEqual     bool         `json:"dates_equal"`
	ChecksumsEqual bool         `json:"checksums_equal"`
	Sharded        *shardedJSON `json:"sharded,omitempty"`
}

func asJSON(mode string, r soc.Result) runJSON {
	return runJSON{
		Mode:        mode,
		WallMS:      float64(r.Wall.Microseconds()) / 1000,
		CtxSwitches: r.Stats.ContextSwitches,
		SimEndNS:    int64(r.SimEnd / sim.NS),
	}
}

func main() { os.Exit(run()) }

// run does the whole comparison and returns the exit code, so the deferred
// profile teardown happens before the process exits.
func run() int {
	var (
		pipelines   = flag.Int("pipelines", 8, "accelerator pipelines")
		jobs        = flag.Int("jobs", 10, "job rounds")
		words       = flag.Int("words", 4096, "words per job")
		depth       = flag.Int("depth", 16, "accelerator FIFO depth")
		useNoC      = flag.Bool("noc", true, "route odd pipelines through the NoC")
		packet      = flag.Int("packet", 16, "NoC packet length (words)")
		quantum     = flag.Int64("quantum-ns", 500, "memory-mapped side quantum (ns)")
		dma         = flag.Bool("dma", true, "include the memory-to-memory DMA pipeline")
		reps        = flag.Int("reps", 1, "repetitions (best wall time kept)")
		shards      = flag.Int("shards", 0, "also run the clustered model on 1 and N kernels and report the parallel speedup")
		partitioner = flag.String("partitioner", "", "netlist partitioner for the clustered model: single, roundrobin (default) or mincut")
		csvOut      = flag.Bool("csv", false, "emit CSV")
		jsonOut     = flag.Bool("json", false, "emit a single JSON document")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the runs to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile after the runs to this file")
		simtrace    = flag.String("simtrace", "", "write the last sharded run's scheduler timeline as Chrome trace JSON to this file (needs -shards > 1)")
	)
	flag.Parse()
	if *simtrace != "" {
		par.SetTraceCapture(4096)
	}
	if _, err := netlist.PartitionerByName(*partitioner); err != nil {
		fmt.Fprintf(os.Stderr, "socbench: %v\n", err)
		return 2
	}
	if *shards > *pipelines {
		fmt.Fprintf(os.Stderr, "socbench: -shards %d exceeds -pipelines %d (a cluster is one colocation unit)\n", *shards, *pipelines)
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "socbench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "socbench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "socbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "socbench: %v\n", err)
			}
		}()
	}

	cfg := soc.Config{
		Pipelines:    *pipelines,
		Jobs:         *jobs,
		WordsPerJob:  *words,
		FIFODepth:    *depth,
		UseNoC:       *useNoC,
		NoCPacketLen: *packet,
		Quantum:      sim.Time(*quantum) * sim.NS,
		WithDMA:      *dma,
	}

	best := func(run func() soc.Result) soc.Result {
		r := run()
		for i := 1; i < *reps; i++ {
			if r2 := run(); r2.Wall < r.Wall {
				r = r2
			}
		}
		return r
	}
	run := func(m soc.FIFOMode) soc.Result {
		return best(func() soc.Result {
			c := cfg
			c.Mode = m
			return soc.Run(c)
		})
	}

	syncRes := run(soc.SyncFIFOs)
	smart := run(soc.SmartFIFOs)
	gain := 100 * (1 - float64(smart.Wall)/float64(syncRes.Wall))
	datesEqual := fmt.Sprint(smart.JobDates) == fmt.Sprint(syncRes.JobDates)
	sumsEqual := fmt.Sprint(smart.Checksums) == fmt.Sprint(syncRes.Checksums)

	var shardedRep *shardedJSON
	if *shards > 1 {
		// Clustered variant: NoC/DMA/IRQ knobs do not apply.
		ccfg := cfg
		ccfg.Partitioner = *partitioner
		part, _ := netlist.PartitionerByName(*partitioner)
		single := best(func() soc.Result { return soc.RunClustered(ccfg, 1) })
		multi := best(func() soc.Result { return soc.RunClustered(ccfg, *shards) })
		shardedRep = &shardedJSON{
			Shards:      multi.Shards,
			Partitioner: part.Name(),
			Crossings:   multi.Crossings,
			Single:      asJSON("clustered-1", single),
			Sharded:     asJSON(fmt.Sprintf("clustered-%d", multi.Shards), multi),
			Advances:    multi.Advances,
			SpeedupX:    float64(single.Wall) / float64(multi.Wall),
			DatesEqual: fmt.Sprint(single.JobDates) == fmt.Sprint(multi.JobDates) &&
				fmt.Sprint(single.Checksums) == fmt.Sprint(multi.Checksums),
		}
	}

	switch {
	case *jsonOut:
		if err := campaign.WriteJSON(os.Stdout, reportJSON{
			Pipelines: *pipelines, Jobs: *jobs, WordsPerJob: *words, FIFODepth: *depth,
			UseNoC: *useNoC, WithDMA: *dma,
			Sync: asJSON("sync", syncRes), Smart: asJSON("smart", smart), GainPct: gain,
			DatesEqual: datesEqual, ChecksumsEqual: sumsEqual,
			Sharded: shardedRep,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "socbench: %v\n", err)
			return 1
		}
	case *csvOut:
		c := campaign.NewCSV(os.Stdout, "mode", "wall_ms", "ctx_switches", "sim_end_ns", "crossings")
		type csvRow struct {
			r         runJSON
			crossings int
		}
		rows := []csvRow{{asJSON("sync", syncRes), 0}, {asJSON("smart", smart), 0}}
		if shardedRep != nil {
			rows = append(rows, csvRow{shardedRep.Single, 0}, csvRow{shardedRep.Sharded, shardedRep.Crossings})
		}
		for _, cr := range rows {
			c.Row(cr.r.Mode, cr.r.WallMS, cr.r.CtxSwitches, cr.r.SimEndNS, cr.crossings)
		}
		if err := c.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "socbench: %v\n", err)
			return 1
		}
	default:
		fmt.Printf("Case study SoC: %d pipelines, %d jobs x %d words, FIFO depth %d, NoC %v, DMA %v\n\n",
			*pipelines, *jobs, *words, *depth, *useNoC, *dma)
		for _, r := range []soc.Result{syncRes, smart} {
			fmt.Printf("%-6s  wall %12v  ctx switches %10d  sim end %v\n",
				r.Mode, r.Wall, r.Stats.ContextSwitches, r.SimEnd)
		}
		fmt.Printf("\nwall-time gain: %.1f%%  (paper: 42.3%% on the industrial model)\n", gain)
		fmt.Printf("job completion dates identical: %v\n", datesEqual)
		fmt.Printf("checksums identical:            %v\n", sumsEqual)
		if smart.NoC.PacketsInjected > 0 {
			fmt.Printf("NoC: %d packets, %d flit-hops\n", smart.NoC.PacketsInjected, smart.NoC.FlitsForwarded)
		}
		fmt.Printf("monitor max FIFO levels: %v\n", smart.MaxLevels)
		if shardedRep != nil {
			fmt.Printf("\nClustered model, 1 kernel vs %d kernels (%s partitioner, %d bridge crossings, %d kernel advances):\n",
				shardedRep.Shards, shardedRep.Partitioner, shardedRep.Crossings, shardedRep.Advances)
			fmt.Printf("  1 kernel:  %8.3f ms\n", shardedRep.Single.WallMS)
			fmt.Printf("  %d kernels: %8.3f ms\n", shardedRep.Shards, shardedRep.Sharded.WallMS)
			fmt.Printf("  speedup: %.2fx   dates and checksums identical: %v\n",
				shardedRep.SpeedupX, shardedRep.DatesEqual)
		}
	}
	if !datesEqual || !sumsEqual || (shardedRep != nil && !shardedRep.DatesEqual) {
		fmt.Fprintln(os.Stderr, "socbench: ACCURACY VIOLATION: the two builds disagree")
		return 1
	}
	if *simtrace != "" {
		if err := dumpTrace(*simtrace); err != nil {
			fmt.Fprintf(os.Stderr, "socbench: simtrace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "socbench: scheduler timeline written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *simtrace)
	}
	return 0
}

// dumpTrace writes the most recent captured scheduler timeline to path.
func dumpTrace(path string) error {
	tl := par.LastTrace()
	if tl == nil {
		return fmt.Errorf("no timeline captured (multi-shard run required)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
