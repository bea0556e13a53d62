package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sim"
)

// inputs renders every generated input of a seed: the Fig. 5 table, the
// SoC runs and the first campaigns of the closed loop.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var doc struct {
		Fig5      []string
		SoC       []string
		Campaigns [][]byte
	}
	for _, r := range fig5Rows(seed, fig5Blocks) {
		doc.Fig5 = append(doc.Fig5, fmt.Sprintf("%s %v %s %+v", r.label, r.role, r.ref, r.cfg))
	}
	for _, r := range socRuns(seed, 2, 1) {
		doc.SoC = append(doc.SoC, fmt.Sprintf("%s %v %s %d %+v", r.label, r.role, r.ref, r.shards, r.cfg))
	}
	gen := newCampaignGen(seed)
	for i := 0; i < 5; i++ {
		set, _, _ := campaignSet(fmt.Sprintf("c%d", i), gen.next())
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		doc.Campaigns = append(doc.Campaigns, b)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(t, 42), inputs(t, 42)
	if string(a) != string(b) {
		t.Fatal("the same seed generated different inputs")
	}
	if c := inputs(t, 43); string(a) == string(c) {
		t.Fatal("different seeds generated identical inputs")
	}
}

// TestCampaignRepeatsEarlierPoints pins the cache-hit share: every
// campaign after the first repeats one earlier group verbatim.
func TestCampaignRepeatsEarlierPoints(t *testing.T) {
	gen := newCampaignGen(7)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		groups := gen.next()
		repeated := 0
		for _, g := range groups {
			if seen[g.name] {
				repeated++
			}
		}
		if want := min(i, 1); repeated != want {
			t.Fatalf("campaign %d repeats %d groups, want %d", i, repeated, want)
		}
		for _, g := range groups {
			seen[g.name] = true
		}
	}
}

func TestMedianAndTailPercentile(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- { // unsorted on purpose
		xs = append(xs, float64(i))
	}
	if m := median(xs); m != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", m)
	}
	// Nearest rank is floor(q*n): p90 of 100 samples is the 91st, with 9
	// beyond it, so the highest percentile with 10 beyond is p89.
	p, v, ok := tailPercentile(xs, 10)
	if !ok || p != 89 || v != 90 {
		t.Errorf("tail percentile of 100 samples = p%d %v %v, want p89 = 90 (10 samples beyond)", p, v, ok)
	}
	p, v, ok = tailPercentile(xs[:50], 10) // 51..100
	if !ok || p != 79 || v != 90 {
		t.Errorf("tail percentile of 50 samples = p%d %v %v, want p79 = 90", p, v, ok)
	}
	if p90 := percentile(xs, 90); p90 != 91 {
		t.Errorf("p90 of 1..100 = %v, want 91", p90)
	}
	if _, _, ok := tailPercentile(xs[:15], 10); ok {
		t.Error("15 samples cannot have 10 beyond their median")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of odd sample = %v, want 2", m)
	}
}

func TestDigestCheckFlagsFlippedDate(t *testing.T) {
	dates := []sim.Time{10 * sim.NS, 25 * sim.NS, 40 * sim.NS, 90 * sim.NS}
	recorded := map[string]string{"row": datesDigest(dates)}
	var g gate
	digestCheck(&g, map[string]string{}, recorded, "row", datesDigest(dates))
	if g.failed() != 0 {
		t.Fatalf("identical dates flagged: %v", g.unexpected)
	}
	for i := range dates {
		flipped := append([]sim.Time(nil), dates...)
		flipped[i]++
		var g gate
		digestCheck(&g, map[string]string{}, recorded, "row", datesDigest(flipped))
		if g.failed() != 1 || len(g.unexpected) != 1 {
			t.Errorf("date %d off by one time unit not flagged", i)
		}
	}
	var missing gate
	digestCheck(&missing, map[string]string{}, recorded, "other", datesDigest(dates))
	if missing.failed() != 1 {
		t.Error("a row without a recorded digest must fail")
	}
}

func TestKnownDefectCountsAsFailedButNotUnexpected(t *testing.T) {
	var g gate
	g.checkKnown("a", false, "defect")
	g.checkKnown("b", true, "defect")
	g.check("c", true, "ok")
	if g.attempted() != 3 || g.failed() != 1 || len(g.unexpected) != 0 || g.known["defect"] != 1 {
		t.Fatalf("gate = %+v", g)
	}
}

// TestGateCountsDistinctComparisons pins the counting that makes two runs
// agree however many passes they make: a key counts once, and fails if
// any of its repeats failed.
func TestGateCountsDistinctComparisons(t *testing.T) {
	var short, long gate
	for pass := 0; pass < 2; pass++ {
		short.check("row", true, "row")
		short.checkKnown("defect row", false, "defect")
	}
	for pass := 0; pass < 7; pass++ {
		long.check("row", true, "row")
		long.checkKnown("defect row", false, "defect")
	}
	if short.attempted() != 2 || short.failed() != 1 || long.attempted() != 2 || long.failed() != 1 {
		t.Fatalf("short %d/%d, long %d/%d attempted/failed, want 2/1 for both",
			short.attempted(), short.failed(), long.attempted(), long.failed())
	}
	if long.checks != 14 || long.checkFailures != 7 {
		t.Errorf("long run made %d checks with %d failures, want 14 and 7", long.checks, long.checkFailures)
	}
	var flaky gate
	flaky.check("row", true, "row")
	flaky.check("row", false, "row failed in pass %d", 2)
	flaky.check("row", true, "row")
	if flaky.attempted() != 1 || flaky.failed() != 1 || len(flaky.unexpected) != 1 {
		t.Errorf("a key that fails once must stay failed: %+v", flaky)
	}
}

// TestRecordedFig5Digests re-runs the Fig. 5 reference rows and compares
// them with digests.json.
func TestRecordedFig5Digests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full-size reference rows")
	}
	for _, r := range fig5Rows(1, fig5Blocks) {
		if r.ref != "" {
			continue
		}
		got := datesDigest(pipeline.Run(r.cfg).BlockDates)
		if want := recordedDigests.Fig5[r.label]; got != want {
			t.Errorf("%s: dates digest %s, recorded %s", r.label, got, want)
		}
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, cfg.EndToEnd)
	same("per_layer", perLayer, cfg.PerLayer)
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

// TestWorkloadsPassTheirGates runs every workload briefly, untraced and
// traced, and requires a correct result carrying every metric.
func TestWorkloadsPassTheirGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			res, err := run(name, workloads[name](5), 5, 0, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: incorrect (%d of %d failed)", name, traced, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
	if n := runtime.NumGoroutine(); n > 10 {
		t.Errorf("%d goroutines left running", n)
	}
}
