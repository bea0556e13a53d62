package pipeline

import (
	"context"
	"fmt"

	"repro/internal/netlist"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario registry hook: the §IV-B three-module benchmark as a campaign
// model. The payload seed is derived from the spec's "seed" through the
// deterministic scenario RNG, so identical specs give identical traces
// across runs and worker counts.
func init() {
	scenario.Register(scenario.Model{
		Name:  "pipeline",
		Keys:  []string{"mode", "depth", "blocks", "words_per_block", "quantum_ns", "shards", "partitioner", "seed"},
		Run:   runScenario,
		Check: checkScenario,
	})
}

// scenarioConfig translates spec params into a Config. Campaign workloads
// default far smaller than the paper's 1000×1000 so that matrix sweeps
// with hundreds of points stay cheap; the paper-scale run is one
// parameter away.
func scenarioConfig(p scenario.Params) (Config, error) {
	r := scenario.NewReader(p)
	cfg := Config{
		Depth:         r.Int("depth", 16),
		Blocks:        r.Int("blocks", 20),
		WordsPerBlock: r.Int("words_per_block", 100),
		QuantumValue:  r.Time("quantum_ns", sim.US),
		Shards:        r.Int("shards", 0),
		Partitioner:   r.String("partitioner", ""),
	}
	switch m := r.String("mode", "TDfull"); m {
	case "untimed":
		cfg.Mode = Untimed
	case "TDless":
		cfg.Mode = TDless
	case "TDfull":
		cfg.Mode = TDfull
	case "quantum":
		cfg.Mode = Quantum
	default:
		return cfg, fmt.Errorf("pipeline: unknown mode %q (want untimed, TDless, TDfull or quantum)", m)
	}
	rng := scenario.Rand(r.Int64("seed", 1))
	cfg.Seed = rng.Int63()
	if err := r.Err(); err != nil {
		return cfg, err
	}
	if cfg.Shards > 1 && cfg.Mode != TDfull {
		return cfg, fmt.Errorf("pipeline: mode %v cannot be sharded (only TDfull carries the Smart-FIFO dates)", cfg.Mode)
	}
	if cfg.Shards > 3 {
		return cfg, fmt.Errorf("pipeline: %d shards but the model has only 3 modules", cfg.Shards)
	}
	if _, err := netlist.PartitionerByName(cfg.Partitioner); err != nil {
		return cfg, err
	}
	if cfg.Depth < 1 || cfg.Blocks < 1 || cfg.WordsPerBlock < 1 {
		return cfg, fmt.Errorf("pipeline: depth, blocks and words_per_block must be >= 1")
	}
	return cfg, nil
}

func runScenario(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
	cfg, err := scenarioConfig(p)
	if err != nil {
		return scenario.Outcome{}, err
	}
	res, err := RunCtx(ctx, cfg)
	if err != nil {
		return scenario.Outcome{}, err
	}
	d := scenario.NewDigest()
	d.Times(res.BlockDates)
	// Kernel-stat counters are schedule-dependent for sharded runs
	// (see scenario.Outcome.CtxSwitches); report them single-kernel only.
	ctxSw := res.Stats.ContextSwitches
	if res.Shards > 1 {
		ctxSw = 0
	}
	return scenario.Outcome{
		SimEndNS:    int64(res.SimEnd / sim.NS),
		CtxSwitches: ctxSw,
		Checksums:   []uint64{res.Checksum},
		DatesHash:   d.Sum(),
		Counters: map[string]uint64{
			"words":  uint64(res.Words),
			"blocks": uint64(len(res.BlockDates)),
			"shards": uint64(res.Shards),
		},
	}, nil
}

// blockTrace renders a run's dated block completions (and final checksum)
// as a trace, so two runs compare through the §IV-A oracle.
func blockTrace(r Result) *trace.Recorder {
	rec := trace.NewRecorder()
	for i, d := range r.BlockDates {
		rec.Log(trace.Entry{Date: d, Proc: "sink", Msg: fmt.Sprintf("block %d", i)})
	}
	rec.Log(trace.Entry{Date: r.SimEnd, Proc: "sink", Msg: fmt.Sprintf("checksum %016x", r.Checksum)})
	return rec
}

// checkScenario is the model's trace-equivalence spot check: it runs the
// point's workload shape through the TDless reference and the decoupled
// TDfull build (with the point's shard count) and diffs the dated traces.
// The point's own mode is deliberately ignored: quantum points have a
// known nonzero timing error — that is the ablation, not a bug — while
// the TDless/TDfull pair must agree exactly for every shape.
func checkScenario(ctx context.Context, p scenario.Params) (string, error) {
	cfg, err := scenarioConfig(p)
	if err != nil {
		return "", err
	}
	ref := cfg
	ref.Mode, ref.Shards = TDless, 0
	dec := cfg
	dec.Mode = TDfull
	refRes, err := RunCtx(ctx, ref)
	if err != nil {
		return "", err
	}
	decRes, err := RunCtx(ctx, dec)
	if err != nil {
		return "", err
	}
	return trace.Diff(blockTrace(refRes), blockTrace(decRes)), nil
}
