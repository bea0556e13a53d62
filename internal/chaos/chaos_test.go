package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/chaos"
	"repro/internal/leakcheck"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The chaos scenario model: the soak workload behind the campaign-level
// tests. "wedge" livelocks the run; "panic_round", on sharded builds
// only, injects a shard panic — so the single-kernel degradation rerun
// of a panicking sharded point is clean, exactly the quarantine story.
func init() {
	scenario.Register(scenario.Model{
		Name: "chaos",
		Keys: []string{"stages", "words", "depth", "shards", "seed", "wedge", "panic_round"},
		Run: func(ctx context.Context, p scenario.Params) (scenario.Outcome, error) {
			r := scenario.NewReader(p)
			w := chaos.Workload{
				Stages: r.Int("stages", 3),
				Words:  r.Int("words", 64),
				Depth:  r.Int("depth", 4),
				Shards: r.Int("shards", 1),
				Seed:   r.Int64("seed", 1),
				Wedge:  r.Bool("wedge", false),
			}
			panicRound := r.Int("panic_round", 0)
			if err := r.Err(); err != nil {
				return scenario.Outcome{}, err
			}
			b, fp := w.Build()
			// Deferred so an injected shard panic unwinding through the
			// guard still tears the kernels down before the campaign's
			// recover converts it to an error.
			defer b.Shutdown()
			if panicRound > 0 && b.Coord != nil {
				b.Coord.SetHooks(chaos.Plan{
					PanicRound:  uint64(panicRound),
					PanicShards: []int{0},
				}.Hooks())
			}
			if err := b.RunGuarded(ctx, sim.RunForever); err != nil {
				return scenario.Outcome{}, err
			}
			return scenario.Outcome{
				SimEndNS:    int64(b.Kernels[0].Now() / sim.NS),
				CtxSwitches: b.Stats().ContextSwitches,
				DatesHash:   fmt.Sprintf("%016x", fp()),
			}, nil
		},
	})
}

// fingerprint runs one workload cleanly and returns the dated-output
// hash.
func fingerprint(t *testing.T, w chaos.Workload, plan *chaos.Plan) uint64 {
	t.Helper()
	b, fp := w.Build()
	defer b.Shutdown()
	if plan != nil && b.Coord != nil {
		b.Coord.SetHooks(plan.Hooks())
	}
	if err := b.RunGuarded(context.Background(), sim.RunForever); err != nil {
		t.Fatalf("run: %v", err)
	}
	return fp()
}

// TestJitterDeterminism is the core soak: scheduling jitter around the
// shard steps must never change a single dated word. Three seeds, all
// byte-identical to the unperturbed run.
func TestJitterDeterminism(t *testing.T) {
	defer leakcheck.Check(t)()
	w := chaos.Workload{Stages: 4, Words: 200, Depth: 8, Shards: 3, Seed: 7}
	want := fingerprint(t, w, nil)
	for seed := int64(1); seed <= 3; seed++ {
		got := fingerprint(t, w, &chaos.Plan{Seed: seed, JitterMax: 200 * time.Microsecond})
		if got != want {
			t.Errorf("jitter seed %d: fingerprint %016x, want %016x", seed, got, want)
		}
	}
}

// TestDeferFlushDeterminism: withholding bridge exchanges (delayed
// delivery) must be invisible to dates — the previously published
// bounds keep bounding the reader until the data crosses.
func TestDeferFlushDeterminism(t *testing.T) {
	defer leakcheck.Check(t)()
	w := chaos.Workload{Stages: 4, Words: 200, Depth: 8, Shards: 3, Seed: 11}
	want := fingerprint(t, w, nil)
	for seed := int64(1); seed <= 3; seed++ {
		got := fingerprint(t, w, &chaos.Plan{Seed: seed, FlushDeferProb: 0.5})
		if got != want {
			t.Errorf("defer seed %d: fingerprint %016x, want %016x", seed, got, want)
		}
	}
}

// TestCombinedChaosDeterminism layers jitter and flush deferral.
func TestCombinedChaosDeterminism(t *testing.T) {
	defer leakcheck.Check(t)()
	w := chaos.Workload{Stages: 5, Words: 150, Depth: 4, Shards: 4, Seed: 3}
	want := fingerprint(t, w, nil)
	got := fingerprint(t, w, &chaos.Plan{Seed: 42, JitterMax: 100 * time.Microsecond, FlushDeferProb: 0.3})
	if got != want {
		t.Errorf("combined chaos: fingerprint %016x, want %016x", got, want)
	}
}

// TestShardPanicJoin: when several shards panic before the same
// rendezvous, the coordinator must join every panic value, not drop all
// but the first.
func TestShardPanicJoin(t *testing.T) {
	defer leakcheck.Check(t)()
	w := chaos.Workload{Stages: 4, Words: 64, Shards: 3, Seed: 1}
	b, _ := w.Build()
	defer b.Shutdown()
	// Every thread starts runnable at date 0, so all three shards take
	// a first advance; shards 0 and 2 both panic at theirs.
	b.Coord.SetHooks(chaos.Plan{PanicRound: 1, PanicShards: []int{0, 2}}.Hooks())
	var rec any
	func() {
		defer func() { rec = recover() }()
		b.Coord.Run(sim.RunForever)
	}()
	set, ok := rec.(par.PanicSet)
	if !ok {
		t.Fatalf("recovered %T %v, want par.PanicSet with two values", rec, rec)
	}
	if len(set) != 2 {
		t.Fatalf("PanicSet has %d values, want 2: %v", len(set), set)
	}
	shards := map[int]bool{}
	for _, v := range set {
		pv, ok := v.(chaos.PanicValue)
		if !ok {
			t.Fatalf("panic value %T %v, want chaos.PanicValue", v, v)
		}
		shards[pv.Shard] = true
	}
	if !shards[0] || !shards[2] {
		t.Errorf("joined panics from shards %v, want 0 and 2", shards)
	}
}

// TestStallDiagnosticWithinDeadline is the pinned robustness-contract
// test: a deadlocked model (delta-cycle livelock, simulated time frozen
// at 0 while the kernel dispatches forever) must return a structured
// stall diagnostic — naming the shards, bridges and frontiers — within
// the stall window, not hang.
func TestStallDiagnosticWithinDeadline(t *testing.T) {
	defer leakcheck.Check(t)()
	w := chaos.Workload{Stages: 3, Words: 64, Shards: 3, Seed: 1, Wedge: true}
	b, _ := w.Build()
	defer b.Shutdown()
	start := time.Now()
	err := b.RunGuarded(par.WithStallWindow(context.Background(), 100*time.Millisecond), sim.RunForever)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("guarded run took %v, want well under the 5s bound", elapsed)
	}
	var se *par.StallError
	if !errors.As(err, &se) {
		t.Fatalf("got %v, want *par.StallError", err)
	}
	if !errors.Is(err, par.ErrStalled) {
		t.Errorf("cause %v, want par.ErrStalled", se.Cause)
	}
	if len(se.Diag.Shards) != 3 {
		t.Errorf("diagnostic has %d shards, want 3", len(se.Diag.Shards))
	}
	if len(se.Diag.Bridges) == 0 {
		t.Errorf("diagnostic has no bridges; want the cross-shard channels")
	}
	// The wedged shard is distinguishable: frozen at date 0 with a
	// climbing dispatch beat (livelock, not an idle kernel).
	var wedged *par.ShardDiag
	for i := range se.Diag.Shards {
		if se.Diag.Shards[i].Now == 0 && se.Diag.Shards[i].Beat > 0 {
			wedged = &se.Diag.Shards[i]
		}
	}
	if wedged == nil {
		t.Errorf("no shard pinned at date 0 with nonzero beat in:\n%s", se.Diag.String())
	}
	if s := se.Diag.String(); !strings.Contains(s, "shard") || !strings.Contains(s, "bridge") {
		t.Errorf("diagnostic report missing shard/bridge lines:\n%s", s)
	}
}

// TestStallSingleKernel: the same wedge on an unsharded build goes
// through par.RunKernel and still yields a one-shard diagnostic.
func TestStallSingleKernel(t *testing.T) {
	defer leakcheck.Check(t)()
	w := chaos.Workload{Stages: 2, Words: 32, Shards: 1, Seed: 1, Wedge: true}
	b, _ := w.Build()
	defer b.Shutdown()
	err := b.RunGuarded(par.WithStallWindow(context.Background(), 80*time.Millisecond), sim.RunForever)
	var se *par.StallError
	if !errors.As(err, &se) || !errors.Is(err, par.ErrStalled) {
		t.Fatalf("got %v, want stall error", err)
	}
	if len(se.Diag.Shards) != 1 {
		t.Fatalf("diagnostic has %d shards, want 1", len(se.Diag.Shards))
	}
}

// TestDegradedRerunMatchesReference: a sharded point whose coordinator
// keeps panicking is quarantined and re-run single-kernel; the rerun
// must reproduce the reference dates_hash exactly and be flagged.
func TestDegradedRerunMatchesReference(t *testing.T) {
	defer leakcheck.Check(t)()
	params := scenario.Params{
		"stages": 3, "words": 64, "shards": 3, "seed": 5, "panic_round": 2,
	}
	set := scenario.Set{Specs: []scenario.Spec{{Model: "chaos", Params: params}}}
	res, err := campaign.Run(context.Background(), set, campaign.Options{
		Workers:      1,
		MaxAttempts:  2,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	pt := res.Points[0]
	if pt.Err != "" {
		t.Fatalf("point failed outright: %s", pt.Err)
	}
	if !pt.Degraded {
		t.Fatalf("point not flagged Degraded; attempts=%d", pt.Attempts)
	}
	if pt.Attempts != 3 { // 2 sharded attempts + 1 degraded rerun
		t.Errorf("attempts = %d, want 3", pt.Attempts)
	}
	if res.Aggregate.Degraded != 1 {
		t.Errorf("aggregate degraded = %d, want 1", res.Aggregate.Degraded)
	}
	// Reference: the same point run cleanly on one kernel.
	ref, err := campaign.Run(context.Background(), scenario.Set{Specs: []scenario.Spec{{
		Model:  "chaos",
		Params: scenario.Params{"stages": 3, "words": 64, "shards": 1, "seed": 5},
	}}}, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatalf("reference campaign: %v", err)
	}
	want := ref.Points[0].Outcome.DatesHash
	if got := pt.Outcome.DatesHash; got != want {
		t.Errorf("degraded dates_hash %s, want reference %s", got, want)
	}
}

// TestDeadlineStorm: a burst of wedged points under a tight deadline
// and stall window must all fail cleanly — structured errors, stall
// diagnostics recorded, healthy points unaffected, campaign returns.
func TestDeadlineStorm(t *testing.T) {
	defer leakcheck.Check(t)()
	specs := []scenario.Spec{
		{Model: "chaos", Params: scenario.Params{"words": 32, "seed": 1}},
		{Model: "chaos", Params: scenario.Params{"words": 32, "wedge": true, "seed": 2}},
		{Model: "chaos", Params: scenario.Params{"words": 32, "wedge": true, "seed": 3}},
		{Model: "chaos", Params: scenario.Params{"words": 32, "seed": 4}},
	}
	start := time.Now()
	res, err := campaign.Run(context.Background(), scenario.Set{Specs: specs}, campaign.Options{
		Workers:       2,
		PointDeadline: 5 * time.Second,
		StallWindow:   60 * time.Millisecond,
		NoDegrade:     true,
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if e := time.Since(start); e > 20*time.Second {
		t.Fatalf("storm took %v; points are not being cut off", e)
	}
	if res.Aggregate.Errors != 2 {
		t.Errorf("errors = %d, want 2 (the wedged points)", res.Aggregate.Errors)
	}
	if res.Aggregate.Stalled != 2 {
		t.Errorf("stalled = %d, want 2", res.Aggregate.Stalled)
	}
	for _, p := range res.Points {
		if w, _ := p.Params["wedge"].(bool); w {
			if p.Err == "" || p.Stall == nil {
				t.Errorf("wedged point %d: err=%q stall=%v, want stall failure", p.Index, p.Err, p.Stall)
			}
		} else if p.Err != "" {
			t.Errorf("healthy point %d failed: %s", p.Index, p.Err)
		}
	}
}

// TestCancellationPartialResults: cancelling a campaign mid-flight
// yields the finished points' real outcomes and marks the rest.
func TestCancellationPartialResults(t *testing.T) {
	defer leakcheck.Check(t)()
	var specs []scenario.Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, scenario.Spec{Model: "chaos",
			Params: scenario.Params{"words": 64, "seed": i}})
	}
	// Cancel after the first point completes.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := campaign.Run(ctx, scenario.Set{Specs: specs}, campaign.Options{
		Workers: 1,
		OnProgress: func(done, total int) {
			if done == 1 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	var okPts, cancelled int
	for _, p := range res.Points {
		switch {
		case p.Err == "" && p.Outcome != nil:
			okPts++
		case strings.Contains(p.Err, "cancel"):
			cancelled++
		}
	}
	if okPts == 0 || cancelled == 0 {
		t.Errorf("want both finished and cancelled points, got %d finished, %d cancelled of %d",
			okPts, cancelled, len(res.Points))
	}
}
