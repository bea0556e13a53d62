// Command fifobench regenerates the paper's Fig. 5: execution durations of
// the three-module benchmark (source → transmitter → sink over two FIFOs)
// as a function of the FIFO depth, for the untimed, TDless (timed, no
// decoupling) and TDfull (timed, Smart FIFO decoupling) implementations.
//
// With -quantum it additionally runs the quantum-keeper ablation,
// reporting wall time and the maximum timing error versus the TDless
// reference for a sweep of quantum values.
//
// With -burst=N it additionally runs the burst-dominated configuration:
// the same model moving words in chunks of N through the bulk transfer
// fast paths (rows TDless-b, the chunked scalar reference, and TDburst,
// the chunked bulk TDfull; plus TDpar-b when -shards is also set). The
// TDburst error column is measured against the chunked TDless reference
// and must be zero: fifobench exits 1 on any accuracy violation, which is
// the CI bulk-vs-scalar golden comparison.
//
// -cpuprofile/-memprofile write pprof profiles of the whole sweep.
//
// Output is a whitespace-separated table (or CSV with -csv, or a single
// JSON document with -json for machine-recorded perf trajectories) with one
// row per (depth, mode): wall-clock milliseconds, kernel context switches
// and the simulated end date. The paper's claims to check:
//
//   - TDless is flat across depths (one context switch per access);
//   - untimed and TDfull speed up as the depth grows;
//   - TDfull ≈ 2× untimed; slower than TDless at depth 1, ≈ equal at 2,
//     ≈ 2× faster at 4, gain factor ≈ 6+ for large FIFOs;
//   - TDfull's timing error is always zero, at any depth;
//   - TDburst beats TDfull by ≥ 2× on burst-dominated configurations,
//     still at zero timing error.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// row is one (depth, mode) measurement, shared by the CSV and JSON outputs.
type row struct {
	Depth       int     `json:"depth"`
	Mode        string  `json:"mode"`
	Shards      int     `json:"shards,omitempty"`
	Crossings   int     `json:"crossings,omitempty"`
	QuantumNS   int64   `json:"quantum_ns,omitempty"`
	WallMS      float64 `json:"wall_ms"`
	CtxSwitches uint64  `json:"ctx_switches"`
	SimEndNS    int64   `json:"sim_end_ns"`
	MaxErrNS    int64   `json:"max_err_ns"`
}

// report is the -json document.
type report struct {
	Benchmark string `json:"benchmark"`
	Blocks    int    `json:"blocks"`
	Words     int    `json:"words"`
	Reps      int    `json:"reps"`
	Burst     int    `json:"burst,omitempty"`
	Rows      []row  `json:"rows"`
}

func main() {
	var (
		blocks      = flag.Int("blocks", 200, "blocks to transfer (paper: 1000)")
		words       = flag.Int("words", 1000, "words per block (paper: 1000)")
		depths      = flag.String("depths", "1,2,4,8,16,32,64,128,256,512,1024", "comma-separated FIFO depths")
		reps        = flag.Int("reps", 1, "repetitions per point (best wall time kept)")
		quantum     = flag.Bool("quantum", false, "run the quantum-keeper ablation instead of Fig. 5")
		shards      = flag.Int("shards", 0, "additionally run TDfull partitioned over N kernels (TDpar rows)")
		partitioner = flag.String("partitioner", "", "netlist partitioner for the sharded rows: single, roundrobin (default) or mincut")
		burst       = flag.Int("burst", 0, "additionally run the burst-dominated configuration with chunks of N words (TDless-b/TDburst rows)")
		csv         = flag.Bool("csv", false, "emit CSV")
		jsonOut     = flag.Bool("json", false, "emit a single JSON document (for BENCH_*.json trajectories)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile after the sweep to this file")
		simtrace    = flag.String("simtrace", "", "write the last sharded run's scheduler timeline as Chrome trace JSON to this file (needs -shards > 1)")
	)
	flag.Parse()
	if *simtrace != "" {
		par.SetTraceCapture(4096)
	}
	code := run(*blocks, *words, *depths, *reps, *quantum, *shards, *burst, *partitioner,
		*csv, *jsonOut, *cpuprofile, *memprofile)
	if code == 0 && *simtrace != "" {
		if err := dumpTrace(*simtrace); err != nil {
			fmt.Fprintf(os.Stderr, "fifobench: simtrace: %v\n", err)
			code = 1
		} else {
			fmt.Fprintf(os.Stderr, "fifobench: scheduler timeline written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *simtrace)
		}
	}
	os.Exit(code)
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

// run does the whole sweep and returns the exit code, so profile teardown
// (deferred here) happens before main exits.
func run(blocks, words int, depths string, reps int, quantum bool, shards, burst int, partitioner string,
	csv, jsonOut bool, cpuprofile, memprofile string) int {
	if shards > 3 {
		fmt.Fprintf(os.Stderr, "fifobench: -shards %d: the Fig. 5 model has only 3 modules (use -shards 1..3)\n", shards)
		return 2
	}
	if _, err := netlist.PartitionerByName(partitioner); err != nil {
		fmt.Fprintf(os.Stderr, "fifobench: %v\n", err)
		return 2
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fifobench: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fifobench: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if memprofile != "" {
		defer func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fifobench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "fifobench: %v\n", err)
			}
		}()
	}

	var depthList []int
	for _, s := range strings.Split(depths, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || d <= 0 {
			fmt.Fprintf(os.Stderr, "fifobench: bad depth %q\n", s)
			return 2
		}
		depthList = append(depthList, d)
	}

	// CSV and JSON go through the shared campaign emitters.
	var csvW *campaign.CSV
	if csv && !jsonOut {
		if quantum {
			csvW = campaign.NewCSV(os.Stdout, "depth", "mode", "quantum_ns", "wall_ms", "ctx_switches", "max_err_ns")
		} else {
			csvW = campaign.NewCSV(os.Stdout, "depth", "mode", "wall_ms", "ctx_switches", "sim_end_ns", "err_ns", "crossings")
		}
	}
	var rows []row
	violations := 0
	name := "fig5"
	if quantum {
		name = "quantum"
		if shards > 1 {
			fmt.Fprintln(os.Stderr, "fifobench: -shards is ignored with -quantum (the ablation has no sharded rows)")
		}
		rows = runQuantumAblation(blocks, words, depthList, reps, csvW, jsonOut)
	} else {
		rows, violations = runFig5(blocks, words, depthList, reps, shards, burst, partitioner, csvW, jsonOut)
	}
	if csvW != nil {
		if err := csvW.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "fifobench: %v\n", err)
			return 1
		}
	}
	if jsonOut {
		if err := campaign.WriteJSON(os.Stdout, report{
			Benchmark: name, Blocks: blocks, Words: words, Reps: reps, Burst: burst, Rows: rows,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "fifobench: %v\n", err)
			return 1
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "fifobench: ACCURACY VIOLATION: %d row(s) with nonzero timing error\n", violations)
		return 1
	}
	return 0
}

// best runs cfg reps times and keeps the fastest wall time (other fields
// are identical across repetitions by determinism).
func best(cfg pipeline.Config, reps int) pipeline.Result {
	res := pipeline.Run(cfg)
	for i := 1; i < reps; i++ {
		r := pipeline.Run(cfg)
		if r.Wall < res.Wall {
			res = r
		}
	}
	return res
}

// runFig5 returns the measured rows plus the number of accuracy violations
// (nonzero TDfull/TDburst/TDpar error columns); any violation makes
// fifobench exit 1.
func runFig5(blocks, words int, depths []int, reps, shards, burst int, partitioner string, csvW *campaign.CSV, quiet bool) ([]row, int) {
	if !quiet && csvW == nil {
		fmt.Printf("Fig. 5 — %d blocks x %d words\n", blocks, words)
		fmt.Printf("%6s  %-8s  %10s  %12s  %14s  %8s\n",
			"depth", "mode", "wall(ms)", "ctx switches", "sim end", "err")
	}
	var rows []row
	violations := 0
	for _, d := range depths {
		// ref is the word-at-a-time TDless reference; bref the chunked
		// one (the scalar oracle the bulk TDburst rows are pinned to).
		var ref, bref pipeline.Result
		emit := func(label string, cfg pipeline.Config, isRef bool) {
			r := best(cfg, reps)
			errStr := "-"
			var errNS sim.Time
			if isRef {
				if cfg.Burst > 1 {
					bref = r
				} else {
					ref = r
				}
			} else if cfg.Mode == pipeline.TDfull {
				against := ref
				if cfg.Burst > 1 {
					against = bref
				}
				errNS = pipeline.MaxTimingError(against, r)
				errStr = errNS.String()
				if errNS != 0 {
					violations++
				}
			}
			rowShards := 0
			if cfg.Shards > 1 {
				rowShards = r.Shards
			}
			rows = append(rows, row{
				Depth: d, Mode: label, Shards: rowShards, Crossings: r.Crossings,
				WallMS:      float64(r.Wall.Microseconds()) / 1000,
				CtxSwitches: r.Stats.ContextSwitches,
				SimEndNS:    int64(r.SimEnd / sim.NS),
				MaxErrNS:    int64(errNS / sim.NS),
			})
			if quiet {
				return
			}
			if csvW != nil {
				csvW.Row(d, label, float64(r.Wall.Microseconds())/1000, r.Stats.ContextSwitches,
					int64(r.SimEnd/sim.NS), int64(errNS/sim.NS), r.Crossings)
			} else {
				fmt.Printf("%6d  %-8s  %10.3f  %12d  %14v  %8s\n",
					d, label, float64(r.Wall.Microseconds())/1000, r.Stats.ContextSwitches, r.SimEnd, errStr)
			}
		}
		for _, m := range []pipeline.Mode{pipeline.Untimed, pipeline.TDless, pipeline.TDfull} {
			emit(m.String(), pipeline.Config{Mode: m, Depth: d, Blocks: blocks, WordsPerBlock: words}, m == pipeline.TDless)
		}
		if shards > 1 {
			// TDpar: the same TDfull model partitioned over the
			// conservative multi-kernel coordinator. Same dates (the
			// err column must stay 0), different wall clock.
			emit("TDpar", pipeline.Config{
				Mode: pipeline.TDfull, Depth: d, Blocks: blocks, WordsPerBlock: words, Shards: shards,
				Partitioner: partitioner,
			}, false)
		}
		if burst > 1 {
			// Burst-dominated configuration: chunked scalar TDless
			// reference, then the bulk TDburst rows pinned against it
			// (err must stay 0).
			emit("TDless-b", pipeline.Config{
				Mode: pipeline.TDless, Depth: d, Blocks: blocks, WordsPerBlock: words, Burst: burst,
			}, true)
			emit("TDburst", pipeline.Config{
				Mode: pipeline.TDfull, Depth: d, Blocks: blocks, WordsPerBlock: words, Burst: burst,
			}, false)
			if shards > 1 {
				emit("TDpar-b", pipeline.Config{
					Mode: pipeline.TDfull, Depth: d, Blocks: blocks, WordsPerBlock: words, Burst: burst, Shards: shards,
					Partitioner: partitioner,
				}, false)
			}
		}
	}
	return rows, violations
}

func runQuantumAblation(blocks, words int, depths []int, reps int, csvW *campaign.CSV, quiet bool) []row {
	quanta := []sim.Time{0, 100 * sim.NS, 1 * sim.US, 10 * sim.US, 100 * sim.US}
	if !quiet && csvW == nil {
		fmt.Printf("Quantum ablation — %d blocks x %d words\n", blocks, words)
		fmt.Printf("%6s  %-10s  %10s  %10s  %12s  %12s\n",
			"depth", "mode", "quantum", "wall(ms)", "ctx switches", "max err")
	}
	var rows []row
	for _, d := range depths {
		ref := best(pipeline.Config{Mode: pipeline.TDless, Depth: d, Blocks: blocks, WordsPerBlock: words}, reps)
		emit := func(mode string, quantum sim.Time, r pipeline.Result) {
			e := pipeline.MaxTimingError(ref, r)
			rows = append(rows, row{
				Depth: d, Mode: mode, QuantumNS: int64(quantum / sim.NS),
				WallMS:      float64(r.Wall.Microseconds()) / 1000,
				CtxSwitches: r.Stats.ContextSwitches,
				SimEndNS:    int64(r.SimEnd / sim.NS),
				MaxErrNS:    int64(e / sim.NS),
			})
			if quiet {
				return
			}
			if csvW != nil {
				csvW.Row(d, mode, int64(quantum/sim.NS),
					float64(r.Wall.Microseconds())/1000, r.Stats.ContextSwitches, int64(e/sim.NS))
			} else {
				fmt.Printf("%6d  %-10s  %10v  %10.3f  %12d  %12v\n",
					d, mode, quantum, float64(r.Wall.Microseconds())/1000, r.Stats.ContextSwitches, e)
			}
		}
		for _, q := range quanta {
			r := best(pipeline.Config{
				Mode: pipeline.Quantum, Depth: d, Blocks: blocks, WordsPerBlock: words, QuantumValue: q,
			}, reps)
			emit("quantum", q, r)
		}
		smart := best(pipeline.Config{Mode: pipeline.TDfull, Depth: d, Blocks: blocks, WordsPerBlock: words}, reps)
		emit("TDfull", 0, smart)
	}
	return rows
}
