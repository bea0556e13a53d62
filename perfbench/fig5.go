package main

import (
	"runtime"
	"time"

	"repro/internal/pipeline"
	"repro/internal/sim"
)

// fig5 is the paper's three-module pipeline on one kernel: the Fig. 5
// table of TDless, TDfull, TDless-b and TDburst rows over FIFO depths from
// switch-bound (1) to FIFO-op-bound (256).
type fig5 struct {
	seed int64
	rows []fig5Row
}

func newFig5(seed int64) workload {
	return &fig5{seed: seed, rows: fig5Rows(seed, fig5Blocks)}
}

// setup warms every row's code path at a quarter of the size.
func (w *fig5) setup(b *bench) error {
	for _, r := range fig5Rows(w.seed, fig5Blocks/4) {
		pipeline.Run(r.cfg)
	}
	return nil
}

func (w *fig5) pass(b *bench, traced bool) error {
	results := map[string]pipeline.Result{}
	host := map[role]float64{}
	var counts passCounts
	var words int
	var elapsed float64
	for _, r := range w.rows {
		// Collect the previous run's garbage outside the timed call, so
		// that no run pays for another's allocations.
		runtime.GC()
		c0 := time.Now()
		res := pipeline.Run(r.cfg)
		d := time.Since(c0).Seconds()
		host[r.role] += d
		elapsed += d
		results[r.label] = res
		words += res.Words
		// Each word crosses the pipeline's two FIFOs.
		counts.add(r.role, res.Stats, 2*uint64(res.Words))
	}

	for _, r := range w.rows {
		res := results[r.label]
		b.gate.check(r.label+" words", res.Words == r.cfg.Blocks*r.cfg.WordsPerBlock && len(res.BlockDates) == r.cfg.Blocks,
			"fig5 %s: moved %d words in %d blocks", r.label, res.Words, len(res.BlockDates))
		if r.ref == "" {
			digestCheck(&b.gate, b.observed.Fig5, recordedDigests.Fig5, r.label, datesDigest(res.BlockDates))
			continue
		}
		ref := results[r.ref]
		b.gate.check(r.label+" dates", sameDates([][]sim.Time{res.BlockDates}, [][]sim.Time{ref.BlockDates}) && res.SimEnd == ref.SimEnd,
			"fig5 %s: block dates differ from %s (max error %v)", r.label, r.ref, pipeline.MaxTimingError(ref, res))
		b.gate.check(r.label+" checksum", res.Checksum == ref.Checksum, "fig5 %s: checksum differs from %s", r.label, r.ref)
	}

	for _, ro := range []role{roleRef, roleSmart, roleBurst} {
		b.add(traced, ro.hostMetric(), host[ro])
	}
	b.add(traced, "words_per_s", float64(words)/elapsed)
	b.add(traced, "points_per_s", float64(len(w.rows))/elapsed)
	b.add(traced, "pass.words", float64(words))
	counts.record(b, traced)
	if traced {
		// The scalar TDfull-vs-TDless factor, on the kernel run times.
		var tdless, tdfull float64
		for _, r := range w.rows {
			if r.cfg.Burst == 0 {
				wall := results[r.label].Wall.Seconds()
				switch r.cfg.Mode {
				case pipeline.TDless:
					tdless += wall
				case pipeline.TDfull:
					tdfull += wall
				}
			}
		}
		b.add(true, "derived.tdfull_vs_tdless_x", ratio(tdless, tdfull))
		b.add(true, "derived.gain_pct", 100*(1-ratio(tdfull, tdless)))
	}
	return nil
}

func (w *fig5) finish(b *bench) error { return nil }
