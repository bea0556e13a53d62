package soc

import (
	"context"
	"fmt"

	"repro/internal/netlist"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario registry hooks: the §IV-C case study in both shapes — the
// single-kernel accuracy-ablation model ("soc") and the multi-kernel
// clustered variant ("soc-clustered"). Payload seeds come from the
// deterministic scenario RNG.
func init() {
	scenario.Register(scenario.Model{
		Name: "soc",
		Keys: []string{"mode", "pipelines", "jobs", "words_per_job", "fifo_depth",
			"use_noc", "packet_len", "quantum_ns", "poll_period_ns", "use_irq",
			"with_dma", "seed"},
		Run:   runScenario,
		Check: checkScenario,
	})
	scenario.Register(scenario.Model{
		Name: "soc-clustered",
		Keys: []string{"pipelines", "jobs", "words_per_job", "fifo_depth",
			"quantum_ns", "poll_period_ns", "seed", "shards", "partitioner"},
		Run:   runClusteredScenario,
		Check: checkClusteredScenario,
	})
}

// scenarioConfig translates spec params into a Config (plus the clustered
// shard count). Defaults are campaign-sized, far below the bench defaults.
func scenarioConfig(p scenario.Params) (Config, int, error) {
	r := scenario.NewReader(p)
	cfg := Config{
		Pipelines:    r.Int("pipelines", 3),
		Jobs:         r.Int("jobs", 2),
		WordsPerJob:  r.Int("words_per_job", 64),
		FIFODepth:    r.Int("fifo_depth", 8),
		UseNoC:       r.Bool("use_noc", false),
		NoCPacketLen: r.Int("packet_len", 8),
		Quantum:      r.Time("quantum_ns", 500*sim.NS),
		PollPeriod:   r.Time("poll_period_ns", 200*sim.NS),
		UseIRQ:       r.Bool("use_irq", false),
		WithDMA:      r.Bool("with_dma", false),
		Partitioner:  r.String("partitioner", ""),
	}
	switch m := r.String("mode", "smart"); m {
	case "smart":
		cfg.Mode = SmartFIFOs
	case "sync":
		cfg.Mode = SyncFIFOs
	default:
		return cfg, 0, fmt.Errorf("soc: unknown mode %q (want smart or sync)", m)
	}
	shards := r.Int("shards", 1)
	rng := scenario.Rand(r.Int64("seed", 1))
	cfg.Seed = rng.Int63()
	if err := r.Err(); err != nil {
		return cfg, 0, err
	}
	if cfg.Pipelines < 1 || cfg.Jobs < 1 || cfg.WordsPerJob < 1 || cfg.FIFODepth < 1 {
		return cfg, 0, fmt.Errorf("soc: pipelines, jobs, words_per_job and fifo_depth must be >= 1")
	}
	if cfg.UseNoC && cfg.WordsPerJob%cfg.NoCPacketLen != 0 {
		return cfg, 0, fmt.Errorf("soc: words_per_job (%d) must be a multiple of packet_len (%d)",
			cfg.WordsPerJob, cfg.NoCPacketLen)
	}
	if shards < 1 {
		return cfg, 0, fmt.Errorf("soc: shards must be >= 1")
	}
	if shards > cfg.Pipelines {
		return cfg, 0, fmt.Errorf("soc: %d shards but only %d clusters (one per pipeline)", shards, cfg.Pipelines)
	}
	if _, err := netlist.PartitionerByName(cfg.Partitioner); err != nil {
		return cfg, 0, err
	}
	return cfg, shards, nil
}

// outcome assembles the deterministic fields shared by both models. The
// monitor's MaxLevels are deliberately excluded for sharded runs: they
// observe in-flight state and are schedule-dependent (see RunClustered).
func outcome(res Result) scenario.Outcome {
	d := scenario.NewDigest()
	for _, dates := range res.JobDates {
		d.Times(dates)
	}
	counters := map[string]uint64{
		"bus_accesses": res.BusAccesses,
		"shards":       uint64(res.Shards),
	}
	if res.NoC.PacketsInjected != 0 || res.NoC.FlitsForwarded != 0 {
		counters["noc_packets"] = res.NoC.PacketsDelivered
		counters["noc_flits"] = res.NoC.FlitsForwarded
	}
	// Kernel-stat counters are schedule-dependent for sharded runs
	// (see scenario.Outcome.CtxSwitches); report them single-kernel only.
	ctxSw := res.Stats.ContextSwitches
	if res.Shards > 1 {
		ctxSw = 0
	}
	return scenario.Outcome{
		SimEndNS:    int64(res.SimEnd / sim.NS),
		CtxSwitches: ctxSw,
		Checksums:   append([]uint64(nil), res.Checksums...),
		DatesHash:   d.Sum(),
		Counters:    counters,
	}
}

func runScenario(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
	cfg, _, err := scenarioConfig(p)
	if err != nil {
		return scenario.Outcome{}, err
	}
	res, err := RunCtx(ctx, cfg)
	if err != nil {
		return scenario.Outcome{}, err
	}
	return outcome(res), nil
}

func runClusteredScenario(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
	cfg, shards, err := scenarioConfig(p)
	if err != nil {
		return scenario.Outcome{}, err
	}
	cfg.Mode = SmartFIFOs // the clustered variant is Smart-FIFO only
	res, err := RunClusteredCtx(ctx, cfg, shards)
	if err != nil {
		return scenario.Outcome{}, err
	}
	return outcome(res), nil
}

// jobTrace renders a run's dated job completions and checksums as a trace
// for the §IV-A oracle.
func jobTrace(r Result) *trace.Recorder {
	rec := trace.NewRecorder()
	for pi, dates := range r.JobDates {
		for ji, d := range dates {
			rec.Log(trace.Entry{Date: d, Proc: fmt.Sprintf("p%d.sink", pi), Msg: fmt.Sprintf("job %d", ji)})
		}
	}
	for i, sum := range r.Checksums {
		rec.Log(trace.Entry{Date: r.SimEnd, Proc: fmt.Sprintf("sum%d", i), Msg: fmt.Sprintf("%016x", sum)})
	}
	return rec
}

// checkScenario runs the point's SoC shape with Smart FIFOs and with
// sync-on-every-access FIFOs — the paper's accuracy baseline — and diffs
// the dated job completions. A non-empty diff is a real property of the
// shape, not necessarily a Smart-FIFO bug: job re-programming is driven
// by the control core *polling* status registers (a monitor observation
// of in-flight state), so shapes where a job completion lands exactly on
// a poll boundary can reprogram one tick apart across builds. The stream
// dates inside a job, and all checksums, never differ.
func checkScenario(ctx context.Context, p scenario.Params) (string, error) {
	cfg, _, err := scenarioConfig(p)
	if err != nil {
		return "", err
	}
	smart, syncCfg := cfg, cfg
	smart.Mode, syncCfg.Mode = SmartFIFOs, SyncFIFOs
	syncRes, err := RunCtx(ctx, syncCfg)
	if err != nil {
		return "", err
	}
	smartRes, err := RunCtx(ctx, smart)
	if err != nil {
		return "", err
	}
	return trace.Diff(jobTrace(syncRes), jobTrace(smartRes)), nil
}

// checkClusteredScenario runs the clustered shape on 1 kernel and on the
// point's shard count and diffs the dated job completions: the
// conservative-coordinator equivalence claim.
func checkClusteredScenario(ctx context.Context, p scenario.Params) (string, error) {
	cfg, shards, err := scenarioConfig(p)
	if err != nil {
		return "", err
	}
	cfg.Mode = SmartFIFOs
	one, err := RunClusteredCtx(ctx, cfg, 1)
	if err != nil {
		return "", err
	}
	many, err := RunClusteredCtx(ctx, cfg, shards)
	if err != nil {
		return "", err
	}
	return trace.Diff(jobTrace(one), jobTrace(many)), nil
}
