package campaign

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/netlist"
	"repro/internal/scenario"
	"repro/internal/store"
)

// profiledSet names the retired "profiled" partitioner on a sharded point
// of every partitioner-aware model, next to one healthy point.
func profiledSet() scenario.Set {
	return scenario.Set{Name: "profiled", Specs: []scenario.Spec{
		{Model: "netlist", Params: scenario.Params{"kind": "chain", "stages": 4, "words": 16, "shards": 2, "partitioner": "profiled"}},
		{Model: "pipeline", Params: scenario.Params{"blocks": 2, "words_per_block": 20, "shards": 2, "partitioner": "profiled"}},
		{Model: "soc-clustered", Params: scenario.Params{"shards": 2, "partitioner": "profiled"}},
		{Model: "netlist", Params: scenario.Params{"kind": "chain", "stages": 4, "words": 16, "shards": 2, "partitioner": "mincut"}},
	}}
}

// checkProfiledErrors asserts that the three profiled points failed with
// an error naming every remaining partitioner — no panic, no silent
// fallback to another placement — and that the healthy point ran.
func checkProfiledErrors(t *testing.T, res *Results) {
	t.Helper()
	if len(res.Points) != 4 {
		t.Fatalf("%d points, want 4", len(res.Points))
	}
	for _, p := range res.Points[:3] {
		if p.Outcome != nil || p.Degraded {
			t.Errorf("%s point %d ran anyway: outcome %+v degraded %v", p.Model, p.Index, p.Outcome, p.Degraded)
		}
		if !strings.Contains(p.Err, `"profiled"`) {
			t.Errorf("%s point %d: error %q does not name the partitioner", p.Model, p.Index, p.Err)
		}
		for _, name := range netlist.PartitionerNames() {
			if !strings.Contains(p.Err, name) {
				t.Errorf("%s point %d: error %q does not list %q", p.Model, p.Index, p.Err, name)
			}
		}
		if strings.Contains(p.Err, "panic") {
			t.Errorf("%s point %d: error is a recovered panic: %q", p.Model, p.Index, p.Err)
		}
	}
	if ok := res.Points[3]; ok.Err != "" || ok.Outcome == nil {
		t.Errorf("healthy point failed: err %q outcome %+v", ok.Err, ok.Outcome)
	}
	if res.Aggregate.Errors != 3 {
		t.Errorf("aggregate errors = %d, want 3", res.Aggregate.Errors)
	}
}

// TestProfiledPartitionerRejected: a spec written for the retired
// "profiled" partitioner yields per-point errors on the netlist, pipeline
// and soc-clustered models.
func TestProfiledPartitionerRejected(t *testing.T) {
	res, err := Run(context.Background(), profiledSet(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkProfiledErrors(t, res)
}

// TestRecoverProfiledJob: a journal whose interrupted job names the
// retired partitioner still recovers; the resumed job settles with the
// same per-point errors.
func TestRecoverProfiledJob(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	set := profiledSet()
	spec, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.JobSubmitted("c4", set.Name, len(set.Specs), len(set.Specs), spec); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e := NewEngine(Options{Workers: 2, Store: st2})
	defer e.Close()
	resumed, err := e.Recover(rec)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(resumed) != 1 || resumed[0].ID() != "c4" {
		t.Fatalf("resumed = %v", resumed)
	}
	res, err := resumed[0].Wait(waitCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	checkProfiledErrors(t, res)
}
