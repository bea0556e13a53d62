// Command perfbench is the repository benchmark: it drives the public APIs
// of the pipeline (Fig. 5), soc (§IV-C case study) and campaign + store
// layers on seeded inputs, checks every run's dates and checksums, and
// prints one JSON result line.
//
//	perfbench --workload fig5|soc|campaign --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// every metric registry disabled. With --trace 1 it carries the per-layer
// metrics: counters read from the program's own registries and statistics,
// unit costs calibrated by timing calls into each layer, and the wall-time
// attribution built from both. See README.md for the metric table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// A workload sets itself up (several times, so that set-up time is a
// median) and then runs passes until the timed phase ends. One pass is one
// sweep of the workload's inputs: a Fig. 5 table, one round of SoC runs or
// one campaign.
type workload interface {
	// setup builds and warms the workload once; the benchmark calls it
	// setupReps times and keeps the state of the last call.
	setup(b *bench) error
	// pass runs one sweep and records its samples through b.
	pass(b *bench, traced bool) error
	// finish runs once after the timed phase (restart measurement,
	// clean-up) and records what it measured through b.
	finish(b *bench) error
}

var workloads = map[string]func(seed int64) workload{
	"fig5":     newFig5,
	"soc":      newSoC,
	"campaign": newCampaign,
}

const setupReps = 7

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig5, soc or campaign")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics, 0 end-to-end metrics")
		digests = flag.String("digests-out", "", "write the dates digests the run observed to this file (to re-record digests.json after a model change)")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig5|soc|campaign --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, mk(*seed), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *digests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is printed before the result line: the run's host fingerprint,
// sample counts and the outcome of every correctness check.
type record struct {
	Host      fingerprint       `json:"host"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Passes    int               `json:"passes"`
	Samples   map[string]int    `json:"samples"`
	Unexpect  []string          `json:"unexpected_failures,omitempty"`
	Known     map[string]int    `json:"known_defects,omitempty"`
	Notes     map[string]string `json:"notes,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	// Checks and CheckFailures count single comparisons, repeats included.
	Checks        int      `json:"checks"`
	CheckFailures int      `json:"check_failures"`
	FailedKeys    []string `json:"failed_keys,omitempty"`
}

// bench is the state one run shares with its workload: the correctness
// gate, the samples collected per metric, and the registry of a traced
// run.
type bench struct {
	gate   gate
	layers *layers // nil in an untraced run

	// e2e holds samples of untraced passes, layer those of traced passes
	// (a traced run alternates the two so that it can report the tracing
	// overhead and the end-to-end-style per-layer values untraced).
	e2e, layer map[string][]float64
	// fixed holds values computed once per run: calibrated unit costs,
	// campaign latency quantiles and the derived values.
	fixed map[string]float64
	setup []float64
	// observed collects the dates digests this run computed.
	observed digestFile
	// notes are free-form facts for the record line.
	notes map[string]string
}

// add records one pass sample of a metric.
func (b *bench) add(traced bool, name string, v float64) {
	if traced {
		b.layer[name] = append(b.layer[name], v)
	} else {
		b.e2e[name] = append(b.e2e[name], v)
	}
}

func run(name string, w workload, seed int64, seconds time.Duration, traced bool, digestsOut string) (*result, error) {
	b := &bench{
		e2e: map[string][]float64{}, layer: map[string][]float64{}, fixed: map[string]float64{},
		observed: digestFile{Fig5: map[string]string{}, SoC: map[string]string{}, Campaign: map[string]string{}},
		notes:    map[string]string{},
	}
	if traced {
		b.layers = newLayers()
	}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
	}

	passes := 0
	start := time.Now()
	for passes < 2 || time.Since(start) < seconds {
		// A traced run alternates untraced and traced passes.
		tr := traced && passes%2 == 1
		b.layers.enable(tr)
		runtime.GC()
		var before snapshot
		if tr {
			before = b.layers.snap()
		}
		t0 := time.Now()
		if err := w.pass(b, tr); err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", name, passes, err)
		}
		b.add(tr, "pass_host_s", time.Since(t0).Seconds())
		if tr {
			b.layers.recordDelta(b, before)
		}
		passes++
	}
	b.layers.enable(false)
	if err := w.finish(b); err != nil {
		return nil, fmt.Errorf("%s finish: %w", name, err)
	}
	if digestsOut != "" {
		if err := writeDigests(digestsOut, b.observed); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := calibrate(b); err != nil {
			return nil, fmt.Errorf("calibration: %w", err)
		}
	}

	res := &result{
		Correct:   len(b.gate.unexpected) == 0,
		Attempted: b.gate.attempted(),
		Failed:    b.gate.failed(),
		Metrics:   map[string]metric{},
	}
	if traced {
		b.perLayerMetrics(res.Metrics)
	} else if err := b.endToEndMetrics(res.Metrics); err != nil {
		return nil, err
	}
	rec := record{
		Host: hostFingerprint(seed), Workload: name, Seed: seed, Traced: traced, Passes: passes,
		Samples: map[string]int{}, Unexpect: b.gate.unexpected, Known: b.gate.known, Notes: b.notes,
		Attempted: b.gate.attempted(), Failed: b.gate.failed(),
		Checks: b.gate.checks, CheckFailures: b.gate.checkFailures, FailedKeys: b.gate.failedKeys(),
	}
	for k, v := range b.e2e {
		rec.Samples[k] = len(v)
	}
	for k, v := range b.layer {
		rec.Samples["traced."+k] = len(v)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	for _, u := range b.gate.unexpected {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", u)
	}
	for _, k := range sortedKeys(b.gate.known) {
		fmt.Fprintf(os.Stderr, "perfbench: known defect %s (failed %d times)\n", k, b.gate.known[k])
	}
	return res, nil
}

// endToEndMetrics fills every end-to-end metric from the untraced passes.
func (b *bench) endToEndMetrics(out map[string]metric) error {
	for _, m := range endToEnd {
		var v float64
		switch m.name {
		case "setup_s":
			v = median(b.setup)
		case "peak_rss_mb":
			v = peakRSSMB()
		default:
			s, ok := b.e2e[m.name]
			if !ok {
				return fmt.Errorf("no samples for end-to-end metric %s", m.name)
			}
			v = median(s)
		}
		if !(v > 0) {
			return fmt.Errorf("end-to-end metric %s measured %v, want a positive value", m.name, v)
		}
		out[m.name] = metric{v, m.unit}
	}
	return nil
}

// perLayerMetrics fills every per-layer metric. Values measured in
// untraced passes of the traced run (the host times that are end-to-end
// in kind) come from b.e2e, counters from b.layer, one-off measurements
// from b.fixed; a layer the workload does not exercise reports 0.
func (b *bench) perLayerMetrics(out map[string]metric) {
	b.derive()
	for _, m := range perLayer {
		v, ok := b.fixed[m.name]
		first, second := b.layer, b.e2e
		if untracedKind[m.name] {
			first, second = second, first
		}
		if !ok {
			if s, ok2 := first[m.name]; ok2 {
				v, ok = median(s), true
			} else if s, ok2 := second[m.name]; ok2 {
				v, ok = median(s), true
			}
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{v, m.unit}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
