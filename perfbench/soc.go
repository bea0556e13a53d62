package main

import (
	"runtime"
	"slices"
	"time"

	"repro/internal/soc"
)

// socWL is the §IV-C case study: SyncFIFO vs SmartFIFO at the paper's
// shape and at the classic shape, and the clustered model on 1 and on
// nproc kernels.
type socWL struct {
	seed int64
	runs []socRun
}

func newSoC(seed int64) workload {
	return &socWL{seed: seed, runs: socRuns(seed, runtime.NumCPU(), 1)}
}

func (r socRun) exec() soc.Result {
	if r.shards > 0 {
		return soc.RunClustered(r.cfg, r.shards)
	}
	return soc.Run(r.cfg)
}

// words is the number of words the run's pipelines deliver to their
// sinks.
func (r socRun) words() int { return r.cfg.Pipelines * r.cfg.Jobs * r.cfg.WordsPerJob }

// setup warms every run's code path with half the jobs.
func (w *socWL) setup(b *bench) error {
	for _, r := range socRuns(w.seed, runtime.NumCPU(), 2) {
		r.exec()
	}
	return nil
}

func (w *socWL) pass(b *bench, traced bool) error {
	results := map[string]soc.Result{}
	host := map[role]float64{}
	var counts passCounts
	var words int
	var flits, bus uint64
	var elapsed float64
	for _, r := range w.runs {
		// Collect the previous run's garbage outside the timed call, so
		// that no run pays for another's allocations.
		runtime.GC()
		c0 := time.Now()
		res := r.exec()
		d := time.Since(c0).Seconds()
		host[r.role] += d
		elapsed += d
		results[r.label] = res
		words += r.words()
		flits += res.NoC.FlitsForwarded
		bus += res.BusAccesses
		if res.Shards == 1 {
			// Stream words cross three accelerator FIFOs per pipeline.
			counts.add(r.role, res.Stats, 3*uint64(r.words()))
		}
	}

	for _, r := range w.runs {
		res := results[r.label]
		b.gate.check(r.label+" shape", len(res.JobDates) == r.cfg.Pipelines && len(res.Checksums) >= r.cfg.Pipelines,
			"soc %s: %d pipelines reported dates, %d checksums", r.label, len(res.JobDates), len(res.Checksums))
		if r.ref == "" {
			digestCheck(&b.gate, b.observed.SoC, recordedDigests.SoC, r.label, datesDigest(res.JobDates...))
			continue
		}
		ref := results[r.ref]
		same := sameDates(res.JobDates, ref.JobDates)
		if r.known != "" {
			b.gate.checkKnown(r.label+" dates", same, r.known)
		} else {
			b.gate.check(r.label+" dates", same, "soc %s: job dates differ from %s", r.label, r.ref)
		}
		b.gate.check(r.label+" checksums", slices.Equal(res.Checksums, ref.Checksums), "soc %s: checksums differ from %s", r.label, r.ref)
	}

	for _, ro := range []role{roleRef, roleSmart, roleClustered, roleSharded} {
		b.add(traced, ro.hostMetric(), host[ro])
	}
	b.add(traced, "words_per_s", float64(words)/elapsed)
	b.add(traced, "points_per_s", float64(len(w.runs))/elapsed)
	b.add(traced, "pass.words", float64(words))
	counts.record(b, traced)
	if traced {
		sharded := w.runs[len(w.runs)-1]
		b.add(true, "netlist.crossings", float64(results[sharded.label].Crossings))
		b.add(true, "noc.flit_hops", float64(flits))
		b.add(true, "bus.accesses", float64(bus))
		b.add(true, "derived.gain_pct", 100*(1-ratio(results["smart/paper"].Wall.Seconds(), results["sync/paper"].Wall.Seconds())))
		b.add(true, "derived.speedup_x", ratio(host[roleClustered], host[roleSharded]))
	}
	return nil
}

func (w *socWL) finish(b *bench) error { return nil }
