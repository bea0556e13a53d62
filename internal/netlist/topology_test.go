package netlist

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// topoCases are the shapes the equivalence suite sweeps.
var topoCases = []Topo{
	{Kind: "chain", Stages: 5, Depth: 1, Words: 24},
	{Kind: "chain", Stages: 5, Depth: 4, Words: 24},
	{Kind: "ring", Stages: 4, Depth: 2, Words: 16},
	{Kind: "ring", Stages: 3, Depth: 8, Words: 24},
	{Kind: "tree", Arity: 2, Levels: 2, Depth: 2, Words: 12},
	{Kind: "mesh", Width: 3, Height: 2, Depth: 2, Words: 10},
	{Kind: "mesh", Width: 2, Height: 2, Depth: 1, Words: 8},
}

func seeded(t Topo) Topo {
	rng := scenario.Rand(1)
	t.RateSeed, t.PaySeed = rng.Int63(), rng.Int63()
	return t
}

// digestOf runs a topology and digests its dated sink logs.
func digestOf(t *testing.T, topo Topo, shards int, part Partitioner) (string, *Build) {
	t.Helper()
	probe, b, err := RunTopo(topo, shards, part)
	if err != nil {
		t.Fatalf("%s/%d/%v: %v", topo.Kind, shards, part, err)
	}
	d := scenario.NewDigest()
	for s, name := range probe.Sinks() {
		d.Str(name)
		d.Times(probe.Dates(s))
		d.U64(probe.Checksums()[s])
	}
	return d.Sum(), b
}

// TestPartitionerTraceEquivalence is the satellite acceptance test: every
// partitioner at shards 1..N yields byte-identical dated-log digests to
// the single-kernel build, over all four topology generators.
func TestPartitionerTraceEquivalence(t *testing.T) {
	for _, tc := range topoCases {
		tc := seeded(tc)
		tc.Decoupled = true
		t.Run(fmt.Sprintf("%s-d%d", tc.Kind, tc.Depth), func(t *testing.T) {
			ref, _ := digestOf(t, tc, 1, Single)
			g, _, _ := NewTopoGraph(tc)
			maxShards := len(g.modules)
			if maxShards > 5 {
				maxShards = 5
			}
			for _, part := range []Partitioner{Single, RoundRobin, MinCut} {
				for shards := 1; shards <= maxShards; shards++ {
					got, b := digestOf(t, tc, shards, part)
					if got != ref {
						t.Fatalf("%s shards=%d: digest %s, want %s (crossings %d)",
							part.Name(), shards, got, ref, b.Crossings)
					}
				}
			}
		})
	}
}

// TestTopoReferenceEquivalence runs the §IV-A oracle per shape: the
// synchronized reference build against the decoupled build.
func TestTopoReferenceEquivalence(t *testing.T) {
	for _, tc := range topoCases {
		tc := seeded(tc)
		t.Run(tc.Kind, func(t *testing.T) {
			ref := tc
			ref.Decoupled = false
			dec := tc
			dec.Decoupled = true
			rp, _, err := RunTopo(ref, 1, Single)
			if err != nil {
				t.Fatal(err)
			}
			dp, _, err := RunTopo(dec, 1, Single)
			if err != nil {
				t.Fatal(err)
			}
			if diff := trace.Diff(topoTrace(rp), topoTrace(dp)); diff != "" {
				t.Fatalf("reference vs decoupled:\n%s", diff)
			}
		})
	}
}

// TestNetlistScenarioModel exercises the registered campaign model,
// including its Check, across topology kinds.
func TestNetlistScenarioModel(t *testing.T) {
	m, ok := scenario.Lookup("netlist")
	if !ok {
		t.Fatal("netlist model not registered")
	}
	for _, params := range []scenario.Params{
		{"kind": "chain", "stages": 4, "words": 16, "shards": 2},
		{"kind": "ring", "stages": 3, "depth": 2, "words": 12, "shards": 3, "partitioner": "mincut"},
		{"kind": "tree", "arity": 2, "levels": 2, "words": 8, "shards": 4},
		{"kind": "mesh", "width": 2, "height": 3, "words": 8, "shards": 2, "partitioner": "mincut"},
	} {
		out, err := m.Run(context.Background(), params)
		if err != nil {
			t.Fatalf("%v: %v", params, err)
		}
		if out.DatesHash == "" || len(out.Checksums) == 0 {
			t.Fatalf("%v: empty outcome %+v", params, out)
		}
		// The same point at 1 shard must produce the same digest.
		single := scenario.Params{}
		for k, v := range params {
			single[k] = v
		}
		single["shards"] = 1
		delete(single, "partitioner")
		ref, err := m.Run(context.Background(), single)
		if err != nil {
			t.Fatal(err)
		}
		if ref.DatesHash != out.DatesHash || fmt.Sprint(ref.Checksums) != fmt.Sprint(out.Checksums) {
			t.Fatalf("%v: sharded digest %s != single %s", params, out.DatesHash, ref.DatesHash)
		}
		if diff, err := m.Check(context.Background(), params); err != nil || diff != "" {
			t.Fatalf("%v: check: %v %s", params, err, diff)
		}
	}
	// Validation errors surface.
	if _, err := m.Run(context.Background(), scenario.Params{"kind": "blimp"}); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := m.Run(context.Background(), scenario.Params{"decoupled": false, "shards": 2}); err == nil {
		t.Fatal("sharded reference build accepted")
	}
	if _, err := m.Run(context.Background(), scenario.Params{"kind": "chain", "stages": 3, "shards": 9}); err == nil {
		t.Fatal("shards > modules accepted")
	}
}
