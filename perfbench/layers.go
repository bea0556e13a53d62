package main

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sim"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run (BENCHMARK.json
// "end_to_end"; TestMetricTablesMatchBenchmarkJSON keeps the two equal).
// Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ref_host_s", "s"},
	{"smart_host_s", "s"},
	{"words_per_s", "words/s"},
	{"points_per_s", "points/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics of a traced run (BENCHMARK.json
// "per_layer"). README.md says which end-to-end metric each should move,
// on which workload.
var perLayer = []metricDef{
	{"sim.ctx_switches", "count"},
	{"sim.method_activations", "count"},
	{"sim.timed_steps", "count"},
	{"sim.switch_ns", "ns"},
	{"sim.switch_share.ref", "fraction"},
	{"sim.switch_share.smart", "fraction"},
	{"sim.switch_share.burst", "fraction"},
	{"sim.kernel_spawn_us", "us"},
	{"core.smart_op_ns", "ns"},
	{"core.burst_word_ns", "ns"},
	{"core.bridge_words", "count"},
	{"core.bridge_credits", "count"},
	{"core.bridge_flush_batch_words", "words"},
	{"fifo.sync_op_ns", "ns"},
	{"par.advances", "count"},
	{"par.parks", "count"},
	{"par.wakes", "count"},
	{"par.rendezvous", "count"},
	{"par.fallbacks", "count"},
	{"par.fallback_ratio", "fraction"},
	{"par.exchange_p50_us", "us"},
	{"netlist.build_ms", "ms"},
	{"netlist.crossings", "count"},
	{"netlist.cut_weight", "weight"},
	{"noc.flit_hops", "count"},
	{"bus.accesses", "count"},
	{"campaign.submit_us", "us"},
	{"campaign.point_ms_p50", "ms"},
	{"campaign.overhead_share", "fraction"},
	{"campaign.cache_hit_ratio", "fraction"},
	{"store.append_sync_us_p50", "us"},
	{"store.append_sync_us_p90", "us"},
	{"store.records_per_fsync", "records"},
	{"store.journal_mb", "MB"},
	{"store.recover_ms_per_mb", "ms/MB"},
	{"runtime.mallocs_per_word", "count"},
	{"runtime.gc_cycles", "count"},
	{"attr.ref.residual_pct", "%"},
	{"attr.smart.residual_pct", "%"},
	{"attr.burst.residual_pct", "%"},
	{"derived.gain_pct", "%"},
	{"derived.speedup_x", "x"},
	{"derived.tdfull_vs_tdless_x", "x"},
	{"trace.overhead_pct", "%"},
	{"burst_host_s", "s"},
	{"clustered_host_s", "s"},
	{"sharded_host_s", "s"},
	{"campaign_p50_ms", "ms"},
	{"campaign_p90_ms", "ms"},
	{"campaign.latency_samples", "count"},
	{"restart_s", "s"},
}

// untracedKind are the per-layer host times that passes record: a traced
// run reports them from its untraced passes, so that tracing does not
// inflate them. (Campaign latency and restart times are computed from
// untraced samples directly.)
var untracedKind = map[string]bool{
	"burst_host_s": true, "clustered_host_s": true, "sharded_host_s": true,
}

// layers owns a traced run's metric registry. Its methods are no-ops on a
// nil receiver, which is what an untraced run has.
type layers struct {
	reg *metrics.Registry
}

func newLayers() *layers { return &layers{reg: metrics.NewRegistry()} }

// enable points the process-wide kernel, bridge, scheduler and netlist
// sinks at the registry (on) or disables them (off). Kernels and bridges
// capture the sink when they are built, so this is called between passes.
func (l *layers) enable(on bool) {
	if l == nil {
		return
	}
	r := l.reg
	if !on {
		r = nil
	}
	sim.EnableMetrics(r)
	core.EnableBridgeMetrics(r)
	par.EnableMetrics(r)
	netlist.EnableMetrics(r)
}

// registry returns the registry for sinks that are fixed at construction
// (campaign and store metrics), nil when untraced.
func (l *layers) registry() *metrics.Registry {
	if l == nil {
		return nil
	}
	return l.reg
}

// snapshot is a registry reading plus the runtime's allocation counters.
type snapshot struct {
	values map[string]float64
	hists  map[string]metrics.SeriesSnap
	mem    runtime.MemStats
}

func (l *layers) snap() snapshot {
	s := snapshot{values: map[string]float64{}, hists: map[string]metrics.SeriesSnap{}}
	for _, f := range l.reg.Snapshot() {
		for _, ser := range f.Series {
			key := f.Name
			for _, lb := range ser.Labels {
				key += fmt.Sprintf(",%s=%s", lb.Name, lb.Value)
			}
			if f.Kind == metrics.KindHistogram {
				s.hists[key] = ser
			} else {
				s.values[key] = ser.Value
			}
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// histDelta subtracts two readings of one histogram series.
func histDelta(after, before metrics.SeriesSnap) metrics.SeriesSnap {
	d := after
	d.Buckets = append([]uint64(nil), after.Buckets...)
	for i := range d.Buckets {
		if i < len(before.Buckets) {
			d.Buckets[i] -= before.Buckets[i]
		}
	}
	d.Count = after.Count - before.Count
	d.Sum = after.Sum - before.Sum
	return d
}

// recordDelta records the registry and runtime activity of one traced
// pass.
func (l *layers) recordDelta(b *bench, before snapshot) {
	after := l.snap()
	delta := func(key string) float64 { return after.values[key] - before.values[key] }
	add := func(name string, v float64) { b.add(true, name, v) }

	add("par.advances", delta("par_advances_total"))
	add("par.parks", delta("par_parks_total"))
	add("par.wakes", delta("par_wakes_total,grade=hard")+delta("par_wakes_total,grade=soft"))
	add("par.rendezvous", delta("par_rendezvous_total"))
	add("par.fallbacks", delta("par_fallbacks_total"))
	add("par.fallback_ratio", ratio(delta("par_fallbacks_total"), delta("par_rendezvous_total")))
	if ex := histDelta(after.hists["par_exchange_seconds"], before.hists["par_exchange_seconds"]); ex.Count > 0 {
		add("par.exchange_p50_us", 1e6*ex.SnapQuantile(0.5))
	}
	add("core.bridge_words", delta("core_bridge_words_total"))
	add("core.bridge_credits", delta("core_bridge_credits_total"))
	if fl := histDelta(after.hists["core_bridge_flush_batch_words"], before.hists["core_bridge_flush_batch_words"]); fl.Count > 0 {
		add("core.bridge_flush_batch_words", fl.Sum/float64(fl.Count))
	}
	if delta("par_advances_total") > 0 {
		add("netlist.cut_weight", after.values["netlist_cut_weight"])
	}
	records := 0.0
	for _, typ := range []string{"job_submitted", "point_completed", "job_finished", "job_cancelled"} {
		records += delta("store_records_total,type=" + typ)
	}
	if fs := delta("store_fsyncs_total"); fs > 0 {
		add("store.records_per_fsync", records/fs)
	}
	if w := b.layer["pass.words"]; len(w) > 0 && w[len(w)-1] > 0 {
		add("runtime.mallocs_per_word", float64(after.mem.Mallocs-before.mem.Mallocs)/w[len(w)-1])
	}
	add("runtime.gc_cycles", float64((after.mem.NumGC-after.mem.NumForcedGC)-(before.mem.NumGC-before.mem.NumForcedGC)))
}

// passCounts accumulates one pass's kernel statistics per role, over the
// single-kernel runs only: those counts are a fact of the model, so they
// must not change under a simulator-only change.
type passCounts struct {
	ctx, methods, steps uint64
	roleCtx             [len(roleNames)]uint64
	roleOps             [len(roleNames)]uint64
}

// add folds one single-kernel run in; ops is the number of FIFO word
// transfers (one write plus one read) the run made.
func (c *passCounts) add(r role, st sim.Stats, ops uint64) {
	c.ctx += st.ContextSwitches
	c.methods += st.MethodActivations
	c.steps += st.TimedSteps
	c.roleCtx[r] += st.ContextSwitches
	c.roleOps[r] += ops
}

func (c *passCounts) record(b *bench, traced bool) {
	if !traced {
		return
	}
	b.add(true, "sim.ctx_switches", float64(c.ctx))
	b.add(true, "sim.method_activations", float64(c.methods))
	b.add(true, "sim.timed_steps", float64(c.steps))
	for r := range roleNames {
		b.add(true, "attr."+roleNames[r]+".ctx_switches", float64(c.roleCtx[r]))
		b.add(true, "attr."+roleNames[r]+".fifo_ops", float64(c.roleOps[r]))
	}
}

// derive computes the values a traced run reports from other metrics:
// tracing overhead and the wall-time attribution of each role.
func (b *bench) derive() {
	if t, u := median(b.layer["pass_host_s"]), median(b.e2e["pass_host_s"]); t > 0 && u > 0 {
		b.fixed["trace.overhead_pct"] = 100 * (t/u - 1)
	}
	opCost := map[role]string{roleRef: "fifo.sync_op_net_ns", roleSmart: "core.smart_op_ns", roleBurst: "core.burst_word_ns"}
	sw := b.fixed["sim.switch_ns"]
	for _, r := range []role{roleRef, roleSmart, roleBurst} {
		host := median(b.e2e[r.hostMetric()])
		if !(host > 0) {
			continue
		}
		// A workload that does not count FIFO transfers (campaign)
		// predicts from switches alone.
		switches := medianOr0(b.layer["attr."+r.String()+".ctx_switches"])
		ops := medianOr0(b.layer["attr."+r.String()+".fifo_ops"])
		switchS := switches * sw * 1e-9
		predicted := switchS + ops*b.fixed[opCost[r]]*1e-9
		b.fixed["sim.switch_share."+r.String()] = switchS / host
		b.fixed["attr."+r.String()+".residual_pct"] = 100 * (host - predicted) / host
	}
}
