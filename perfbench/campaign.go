package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/campaign"
	"repro/internal/store"
)

// campaignWL is a closed loop with one client: it submits generated
// campaigns one after another to one campaign.Engine (nproc workers, a
// store WAL, a shared cache, spot checks on) and waits for each. Every
// epochCampaigns campaigns it restarts the service on the journal it
// wrote (timing store.Open + Engine.Recover) and begins a fresh epoch
// with an empty journal, so that memory and restart time do not grow
// with the host's speed.
type campaignWL struct {
	gen     *campaignGen
	workers int

	dir       string
	st        *store.Store
	eng       *campaign.Engine
	submitted int // campaigns submitted in this epoch
}

const (
	campaignCheckEvery = 4
	campaignTimeout    = time.Minute
	epochCampaigns     = 40
)

func newCampaign(seed int64) workload {
	return &campaignWL{gen: newCampaignGen(seed), workers: runtime.NumCPU()}
}

func (w *campaignWL) options(b *bench, st *store.Store) campaign.Options {
	return campaign.Options{
		Workers:    w.workers,
		CheckEvery: campaignCheckEvery,
		Cache:      campaign.NewCache(),
		Store:      st,
		Metrics:    campaign.NewMetrics(b.layers.registry()),
	}
}

func (w *campaignWL) storeOptions(b *bench) store.Options {
	return store.Options{Metrics: store.NewMetrics(b.layers.registry())}
}

// setup opens a fresh epoch and runs the anchor campaign, whose dates
// digests are recorded in digests.json.
func (w *campaignWL) setup(b *bench) error {
	if err := w.close(); err != nil {
		return err
	}
	if err := w.open(b); err != nil {
		return err
	}
	_, err := w.runCampaign(b, "anchor", anchorGroups(), recordedDigests.Campaign)
	return err
}

// open starts an epoch: a fresh journal directory, store and engine.
func (w *campaignWL) open(b *bench) error {
	dir, err := os.MkdirTemp("", "perfbench-wal-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.st, _, err = store.Open(filepath.Join(dir, "wal"), w.storeOptions(b))
	if err != nil {
		return err
	}
	w.eng = campaign.NewEngine(w.options(b, w.st))
	w.submitted = 0
	w.gen.newEpoch()
	return nil
}

// campaignOutcome is what one campaign measured.
type campaignOutcome struct {
	submit, latency time.Duration
	res             *campaign.Results
	points          []campaignPoint
}

// runCampaign submits one campaign, waits for it and gates its results:
// every point must succeed and pass its spot check, every group must agree
// on dates and checksums, and points with a recorded digest must match it.
// The checks are keyed by group kind, so that the anchor campaign every
// set-up runs makes every key a generated campaign can make. Spot checks
// fall on every CheckEvery-th point whatever its kind, so they share one
// key, except on the kind with a known defect (noc, which the anchor spot
// checks).
func (w *campaignWL) runCampaign(b *bench, name string, groups []campaignGroup, recorded map[string]string) (*campaignOutcome, error) {
	set, points, groupOf := campaignSet(name, groups)
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	t0 := time.Now()
	job, err := w.eng.Submit(set)
	if err != nil {
		return nil, err
	}
	submit := time.Since(t0)
	res, err := job.Wait(ctx)
	latency := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("campaign %s: %w", name, err)
	}
	w.submitted++
	if len(res.Points) != len(points) {
		return nil, fmt.Errorf("campaign %s: %d results for %d points", name, len(res.Points), len(points))
	}

	first := make([]int, len(groups))
	for i := range first {
		first[i] = -1
	}
	for i, pr := range res.Points {
		g := groupOf[i]
		kind, known := groups[g].kind, groups[g].known
		agree := func(key string, ok bool, format string, args ...any) {
			if known != "" {
				b.gate.checkKnown(key, ok, known)
			} else {
				b.gate.check(key, ok, format, args...)
			}
		}
		b.gate.check(kind+" point ok", pr.Err == "" && pr.Outcome != nil, "campaign %s point %d (%s): error %q", name, i, pr.Model, pr.Err)
		if pr.Checked {
			key := "spot check"
			if known != "" {
				key = kind + " spot check"
			}
			agree(key, pr.CheckDiff == "", "campaign %s point %d (%s): spot check differs: %s", name, i, pr.Model, pr.CheckDiff)
		}
		if pr.Outcome == nil {
			continue
		}
		if recorded != nil {
			digestCheck(&b.gate, b.observed.Campaign, recorded, pr.Hash, pr.Outcome.DatesHash)
		}
		if first[g] < 0 {
			first[g] = i
			continue
		}
		ref := res.Points[first[g]].Outcome
		if ref == nil {
			continue
		}
		agree(kind+" agree", pr.Outcome.DatesHash == ref.DatesHash && slices.Equal(pr.Outcome.Checksums, ref.Checksums),
			"campaign %s group %s: point %d dates or checksums differ from point %d", name, groups[g].name, i, first[g])
	}
	return &campaignOutcome{submit: submit, latency: latency, res: res, points: points}, nil
}

func (w *campaignWL) pass(b *bench, traced bool) error {
	if w.submitted >= epochCampaigns {
		if err := w.restartEpoch(b); err != nil {
			return err
		}
		if err := w.open(b); err != nil {
			return err
		}
	}
	out, err := w.runCampaign(b, fmt.Sprintf("c%d", w.submitted), w.gen.next(), nil)
	if err != nil {
		return err
	}
	lat := out.latency.Seconds()
	host := map[role]float64{}
	var counts passCounts
	var words, cached int
	var pointWall float64
	var pointMS []float64
	for i, pr := range out.res.Points {
		pointWall += pr.WallMS / 1000
		switch {
		case pr.Cached:
			cached++
			continue
		case pr.Dedup || pr.Outcome == nil:
			continue
		}
		p := out.points[i]
		words += p.words
		pointMS = append(pointMS, pr.WallMS)
		counts.ctx += pr.Outcome.CtxSwitches
		counts.roleCtx[p.role] += pr.Outcome.CtxSwitches
		if !pr.Checked {
			// A checked point's wall time includes its spot-check reruns.
			host[p.role] += pr.WallMS / 1000
		}
	}
	for _, ro := range []role{roleRef, roleSmart, roleBurst, roleClustered, roleSharded} {
		b.add(traced, ro.hostMetric(), host[ro])
	}
	b.add(traced, "words_per_s", float64(words)/lat)
	b.add(traced, "points_per_s", float64(len(out.res.Points))/lat)
	b.add(traced, "campaign_latency_ms", 1000*lat)
	b.add(traced, "pass.words", float64(words))
	if traced {
		b.add(true, "sim.ctx_switches", float64(counts.ctx))
		for r := range roleNames {
			b.add(true, "attr."+roleNames[r]+".ctx_switches", float64(counts.roleCtx[r]))
		}
		b.add(true, "campaign.submit_us", float64(out.submit.Microseconds()))
		b.add(true, "campaign.point_ms_p50", median(pointMS))
		b.add(true, "campaign.overhead_share", 1-pointWall/(float64(w.workers)*lat))
		b.add(true, "campaign.cache_hit_ratio", float64(cached)/float64(len(out.res.Points)))
		b.add(true, "derived.speedup_x", pointWall/lat)
	}
	return nil
}

// finish reports the latency distribution and ends the last epoch with a
// restart.
func (w *campaignWL) finish(b *bench) error {
	if lat := b.e2e["campaign_latency_ms"]; len(lat) > 0 {
		b.fixed["campaign_p50_ms"] = median(lat)
		b.fixed["campaign_p90_ms"] = percentile(lat, 90)
		b.fixed["campaign.latency_samples"] = float64(len(lat))
		// The record states the highest percentile the sample supports
		// with at least 10 samples beyond it.
		p, v, ok := tailPercentile(lat, 10)
		b.notes["campaign latency tail"] = fmt.Sprintf("p%d = %.3f ms over %d campaigns (supported: %v)", p, v, len(lat), ok)
	}
	return w.restartEpoch(b)
}

// restartEpoch closes the engine and the store, times store.Open +
// Engine.Recover on the epoch's journal, checks that every journaled
// campaign was recovered and settles without error, and removes the
// journal.
func (w *campaignWL) restartEpoch(b *bench) error {
	w.eng.Close()
	w.eng = nil
	err := w.st.Close()
	w.st = nil
	defer w.close()
	if err != nil {
		return err
	}
	wal := filepath.Join(w.dir, "wal")
	journal, err := dirBytes(wal)
	if err != nil {
		return err
	}

	t0 := time.Now()
	st, rec, err := store.Open(wal, w.storeOptions(b))
	if err != nil {
		return err
	}
	eng := campaign.NewEngine(w.options(b, st))
	jobs, err := eng.Recover(rec)
	d := time.Since(t0).Seconds()
	w.st, w.eng = st, eng // released by the deferred close
	if err != nil {
		return err
	}
	b.gate.check("restart recovered jobs", len(rec.Jobs) == w.submitted, "restart: recovered %d jobs, submitted %d", len(rec.Jobs), w.submitted)
	ctx, cancel := context.WithTimeout(context.Background(), campaignTimeout)
	defer cancel()
	var unsettled []string
	for _, j := range jobs {
		if res, err := j.Wait(ctx); err != nil || res == nil || res.Aggregate.Errors != 0 {
			unsettled = append(unsettled, fmt.Sprintf("%s (%v)", j.ID(), err))
		}
	}
	b.gate.check("restart resumed jobs", len(unsettled) == 0, "restart: resumed jobs did not settle cleanly: %v", unsettled)
	mb := float64(journal) / (1 << 20)
	b.add(false, "restart_s", d)
	b.add(false, "store.journal_mb", mb)
	b.add(false, "store.recover_ms_per_mb", ratio(1000*d, mb))
	return nil
}

// close releases the engine, store and directory of an earlier set-up.
func (w *campaignWL) close() error {
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
	if w.st != nil {
		if err := w.st.Close(); err != nil {
			return err
		}
		w.st = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
