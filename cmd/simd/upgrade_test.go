package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/store"
)

// TestBootStoreWithProfiledJob: a store journaled by a build that still
// had the "profiled" partitioner — an interrupted job naming it, one of
// its points completed with the placement-cost counters that build
// reported — boots. The journaled point's outcome is served from the
// recovered cache as it was; the unjournaled one settles with an error
// naming the remaining partitioners.
func TestBootStoreWithProfiledJob(t *testing.T) {
	dir := t.TempDir()
	set := scenario.Set{Name: "old", Specs: []scenario.Spec{
		{Model: "netlist", Params: scenario.Params{"kind": "chain", "stages": 4, "words": 16, "shards": 2, "partitioner": "profiled"}},
		{Model: "pipeline", Params: scenario.Params{"blocks": 2, "words_per_block": 20, "shards": 2, "partitioner": "profiled"}},
	}}
	spec, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	points, err := set.Expand()
	if err != nil {
		t.Fatal(err)
	}
	old := &scenario.Outcome{SimEndNS: 1234, Checksums: []uint64{7}, DatesHash: "1:0000000000000007",
		Counters: map[string]uint64{"shards": 2, "crossings": 1, "crossings_before": 1, "crossings_after": 1,
			"cut_weight_before": 16, "cut_weight_after": 16}}
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.JobSubmitted("c1", set.Name, len(points), len(points), spec); err != nil {
		t.Fatal(err)
	}
	if err := st.PointCompleted(points[0].Hash, old); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	s := startService(t, freePort(t), dir)
	defer s.kill()
	deadline := time.Now().Add(30 * time.Second)
	for pollStatus(t, s, "c1").State != campaign.JobDone {
		if time.Now().After(deadline) {
			t.Fatalf("recovered job never settled: %+v\nchild stderr:\n%s", pollStatus(t, s, "c1"), s.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	code, body := get(t, s.url+"/campaigns/c1/results")
	if code != http.StatusOK {
		t.Fatalf("results: %d %s", code, body)
	}
	var res campaign.Results
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	// The service spot-checks every 4th point, point 0 included: the
	// check re-runs the point and fails the same way.
	if p := res.Points[0]; p.Outcome == nil || p.Outcome.Counters["crossings_before"] != 1 || !rejected(p.Err) {
		t.Errorf("journaled point: want the recovered outcome plus a check error, got %+v", p)
	}
	if p := res.Points[1]; p.Outcome != nil || !rejected(p.Err) {
		t.Errorf("unjournaled profiled point: err %q outcome %+v", p.Err, p.Outcome)
	}
}

// rejected reports whether err is the unknown-partitioner error naming
// the remaining partitioners.
func rejected(err string) bool {
	return strings.Contains(err, `unknown partitioner "profiled"`) && strings.Contains(err, "[mincut roundrobin single]")
}
