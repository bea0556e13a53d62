package netlist

import (
	"context"
	"fmt"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario registry hook: generated topologies as a campaign model, making
// topology itself — kind, size, shard count, partitioner — a sweepable
// axis. The per-stage rate schedules and source payloads derive from the
// spec's "seed" through the deterministic scenario RNG.
func init() {
	scenario.Register(scenario.Model{
		Name: "netlist",
		Keys: []string{"kind", "stages", "width", "height", "arity", "levels",
			"depth", "words", "seed", "decoupled", "shards", "partitioner"},
		Run:   runScenario,
		Check: checkScenario,
	})
}

func topoConfig(p scenario.Params) (Topo, int, Partitioner, error) {
	r := scenario.NewReader(p)
	t := Topo{
		Kind:      r.String("kind", "chain"),
		Stages:    r.Int("stages", 4),
		Width:     r.Int("width", 2),
		Height:    r.Int("height", 2),
		Arity:     r.Int("arity", 2),
		Levels:    r.Int("levels", 2),
		Depth:     r.Int("depth", 4),
		Words:     r.Int("words", 32),
		Decoupled: r.Bool("decoupled", true),
	}
	shards := r.Int("shards", 1)
	partName := r.String("partitioner", "")
	rng := scenario.Rand(r.Int64("seed", 1))
	t.RateSeed, t.PaySeed = rng.Int63(), rng.Int63()
	if err := r.Err(); err != nil {
		return t, 0, nil, err
	}
	if err := t.Validate(); err != nil {
		return t, 0, nil, err
	}
	if shards < 1 {
		return t, 0, nil, fmt.Errorf("netlist: shards must be >= 1")
	}
	if shards > 1 && !t.Decoupled {
		return t, 0, nil, fmt.Errorf("netlist: the reference (decoupled=false) build cannot be sharded (only Smart FIFOs carry the bridge dates)")
	}
	part, err := PartitionerByName(partName)
	if err != nil {
		return t, 0, nil, err
	}
	return t, shards, part, nil
}

// RunTopo generates, builds and runs a topology, returning the probe and
// the finished build (already shut down). The shards/partitioner choice
// never changes the probe's dated logs — only wall time and coordinator
// activity.
func RunTopo(t Topo, shards int, part Partitioner) (*TopoProbe, *Build, error) {
	return RunTopoCtx(context.Background(), t, shards, part)
}

// RunTopoCtx is RunTopo under the par supervisor: the run is
// interrupted when ctx ends or the stall watchdog it carries fires,
// returning the guard's error. The build is shut down either way, so no
// goroutine outlives an aborted run.
func RunTopoCtx(ctx context.Context, t Topo, shards int, part Partitioner) (*TopoProbe, *Build, error) {
	g, probe, err := NewTopoGraph(t)
	if err != nil {
		return nil, nil, err
	}
	impl := Smart
	if !t.Decoupled {
		impl = Plain
	}
	b, err := g.Build(Options{Shards: shards, Partitioner: part, Impl: impl})
	if err != nil {
		return nil, nil, err
	}
	err = b.RunGuarded(ctx, sim.RunForever)
	blocked := b.Blocked()
	b.Shutdown()
	if err != nil {
		return nil, nil, err
	}
	if len(blocked) != 0 {
		return nil, nil, fmt.Errorf("netlist: %s topology deadlocked: %v", t.Kind, blocked)
	}
	return probe, b, nil
}

func runScenario(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
	t, shards, part, err := topoConfig(p)
	if err != nil {
		return scenario.Outcome{}, err
	}
	probe, b, err := RunTopoCtx(ctx, t, shards, part)
	if err != nil {
		return scenario.Outcome{}, err
	}
	d := scenario.NewDigest()
	for s, name := range probe.Sinks() {
		d.Str(name)
		d.Times(probe.Dates(s))
	}
	// Kernel-stat counters are schedule-dependent for sharded runs
	// (see scenario.Outcome.CtxSwitches); report them single-kernel only.
	ctxSw := b.Stats().ContextSwitches
	if b.Shards() > 1 {
		ctxSw = 0
	}
	return scenario.Outcome{
		SimEndNS:    int64(probe.SimEnd() / sim.NS),
		CtxSwitches: ctxSw,
		Checksums:   probe.Checksums(),
		DatesHash:   d.Sum(),
		Counters: map[string]uint64{
			"modules":   uint64(len(b.Assignment)),
			"sinks":     uint64(len(probe.Sinks())),
			"shards":    uint64(b.Shards()),
			"crossings": uint64(b.Crossings),
		},
	}, nil
}

// topoTrace renders a probe's dated per-sink logs (and checksums) as a
// trace for the §IV-A oracle.
func topoTrace(p *TopoProbe) *trace.Recorder {
	rec := trace.NewRecorder()
	for s, name := range p.Sinks() {
		for i, d := range p.Dates(s) {
			rec.Log(trace.Entry{Date: d, Proc: name, Msg: fmt.Sprintf("word %d", i)})
		}
	}
	end := p.SimEnd()
	for s, name := range p.Sinks() {
		rec.Log(trace.Entry{Date: end, Proc: name, Msg: fmt.Sprintf("checksum %016x", p.Checksums()[s])})
	}
	return rec
}

// checkScenario is the model's trace-equivalence spot check: the
// synchronized reference build (regular FIFOs + Wait, one kernel) against
// the decoupled build at the point's shard count and partitioner. Their
// dated sink logs must be identical — the §IV-A oracle composed with the
// bridge-exactness claim.
func checkScenario(ctx context.Context, p scenario.Params) (string, error) {
	t, shards, part, err := topoConfig(p)
	if err != nil {
		return "", err
	}
	ref := t
	ref.Decoupled = false
	refProbe, _, err := RunTopoCtx(ctx, ref, 1, Single)
	if err != nil {
		return "", err
	}
	dec := t
	dec.Decoupled = true
	decProbe, _, err := RunTopoCtx(ctx, dec, shards, part)
	if err != nil {
		return "", err
	}
	return trace.Diff(topoTrace(refProbe), topoTrace(decProbe)), nil
}
