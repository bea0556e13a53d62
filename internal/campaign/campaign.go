// Package campaign executes expanded scenario sets — many independent
// simulations, not one — across a pool of workers, and aggregates and
// serializes the results. It is the design-space-exploration layer the
// paper's cheap what-if simulation exists to feed: a Spec matrix over
// FIFO depths, quanta, shard counts and topologies becomes one kernel
// run per point, fanned out over GOMAXPROCS workers (each point builds
// its own sim.Kernel(s), and sharded points additionally parallelize
// inside via internal/par).
//
// Guarantees:
//
//   - deterministic results: points are identified and cached by their
//     canonical scenario hash, executed at most once per campaign, and
//     reported in expansion order — the results document is byte-identical
//     whether the campaign ran on 1 worker or N (wall-clock timing is
//     carried separately and omitted from the deterministic document);
//   - spot-checked accuracy: a deterministic sample of points (every
//     CheckEvery-th expanded index) re-runs through the model's §IV-A
//     trace-equivalence oracle (decoupled vs reference, compared with
//     trace.Diff after date reordering);
//   - shared caching: an Engine's Cache carries outcomes across campaigns,
//     so overlapping sweeps only pay for new points;
//   - fault tolerance: every failure mode of a point — panic, wall-clock
//     deadline (PointDeadline), no-simulated-time-progress stall
//     (StallWindow) — becomes a structured per-point error, never a hang.
//     Transient failures retry with exponential backoff up to MaxAttempts;
//     a sharded point whose attempts are exhausted is quarantined into a
//     single-kernel rerun (flagged Degraded, date-exact by the
//     coordinator-equivalence claim). Cancelling the context stops the
//     campaign cooperatively and returns the partial results document.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Options tunes one campaign run.
type Options struct {
	// Workers is the pool size; 0 means GOMAXPROCS.
	Workers int
	// CheckEvery samples the trace-equivalence spot check: every k-th
	// expanded point (by its first-occurrence index) is verified against
	// the model's reference build. 0 disables checking.
	CheckEvery int
	// MaxPoints bounds the expansion (a submission guard for the HTTP
	// front-end); 0 means the 10000 default.
	MaxPoints int
	// Cache, when non-nil, is consulted before running a point and
	// updated after; share one across campaigns to skip repeated points.
	Cache *Cache
	// OnProgress, when non-nil, is called after each completed point
	// with the number of finished points and the total. Calls may come
	// from worker goroutines.
	OnProgress func(done, total int)

	// PointDeadline bounds each attempt's wall-clock time: a point still
	// running when it expires is interrupted cooperatively (par guard)
	// and reported as a deadline failure with a stall diagnostic — or
	// retried/degraded, see MaxAttempts. 0 means no deadline.
	PointDeadline time.Duration
	// StallWindow arms the no-progress watchdog inside each attempt: an
	// attempt whose kernels dispatch nothing for a full window is
	// interrupted with par.ErrStalled. 0 disables the watchdog.
	StallWindow time.Duration
	// MaxAttempts bounds the executions of a transiently-failing point
	// (panic, stall, deadline): after the first failure the point is
	// retried with exponential backoff until it succeeds or the budget
	// is spent. 0 or 1 means a single attempt.
	MaxAttempts int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt; 0 means 50ms. Only meaningful with MaxAttempts > 1.
	RetryBackoff time.Duration
	// AbandonGrace is how long, past an attempt's cancellation, to wait
	// for a model that does not honour the cooperative interrupt before
	// abandoning its goroutine and failing the attempt; 0 means 5s.
	// Only meaningful when a deadline or cancellable context is in play.
	AbandonGrace time.Duration
	// NoDegrade disables the sharded→single-kernel degradation rerun
	// that otherwise follows a transiently-failed sharded point.
	NoDegrade bool
	// MaxActive bounds the campaigns an Engine runs concurrently:
	// Submit returns ErrBusy beyond it. 0 means unbounded. Ignored by
	// the synchronous Run.
	MaxActive int
	// Metrics, when non-nil, receives per-point execution counters
	// (see NewMetrics); a nil sink costs nothing.
	Metrics *Metrics
	// Store, when non-nil, is the durable campaign journal: Engine
	// submissions, deterministic point outcomes and terminal states are
	// appended to it, and Engine.Recover rebuilds the job table and the
	// cross-restart cache from it after a crash or restart. Ignored by
	// the synchronous Run (which has no job identity to journal).
	Store *store.Store

	// live receives a running job's counters for the stats endpoint;
	// installed by Engine.Submit, nil for synchronous Run.
	live *liveStats
	// onPoint, when non-nil, receives a snapshot of each canonical
	// point result right after its worker finishes it (calls come from
	// worker goroutines, one per unique hash, in completion order).
	// Installed by Engine.Submit for journaling and result streaming.
	onPoint func(pr PointResult)
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxPoints <= 0 {
		o.MaxPoints = 10000
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 1
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.AbandonGrace <= 0 {
		o.AbandonGrace = 5 * time.Second
	}
}

// PointResult is one expanded point's report. All fields except WallMS
// are deterministic functions of the spec.
type PointResult struct {
	// Index is the point's position in expansion order.
	Index int `json:"index"`
	// Model and Params echo the concrete scenario; Hash is its
	// canonical content hash.
	Model  string          `json:"model"`
	Hash   string          `json:"hash"`
	Params scenario.Params `json:"params"`
	// Outcome is the simulation result (nil when Err is set).
	Outcome *scenario.Outcome `json:"outcome,omitempty"`
	// Err reports a per-point failure (bad parameters, model panic).
	Err string `json:"error,omitempty"`
	// Dedup marks a point whose hash already appeared at a lower index;
	// its outcome is copied from that canonical point.
	Dedup bool `json:"dedup,omitempty"`
	// Cached marks a point whose outcome was served from the shared
	// cache (in-memory or rebuilt from the durable store) instead of
	// executing. Like WallMS it depends on what ran before, so it is
	// zeroed in the canonical results document; the crash-recovery
	// tests read it (with ?wall=1) to prove resumed points were not
	// recomputed.
	Cached bool `json:"cached,omitempty"`
	// Checked marks a point that ran the trace-equivalence spot check;
	// CheckDiff holds the first difference ("" = traces identical).
	Checked   bool   `json:"checked,omitempty"`
	CheckDiff string `json:"check_diff,omitempty"`
	// Degraded marks a sharded point whose outcome comes from the
	// single-kernel quarantine rerun after its sharded attempts failed
	// — date-exact by the coordinator-equivalence claim, with the shard
	// counters reflecting the rerun. Outcome provenance: it stays in
	// the canonical document (healthy runs never set it).
	Degraded bool `json:"degraded,omitempty"`
	// Stall carries the structured stall diagnostic of the last failed
	// attempt (deadline or watchdog), when one was produced. Like
	// Degraded it stays in the canonical document.
	Stall *par.StallDiagnostic `json:"stall,omitempty"`
	// Attempts counts the executions the point needed (retries plus the
	// degradation rerun): present only when more than one. Wall-clock
	// dependent like WallMS, so it is zeroed in the canonical results
	// document (see Results.JSON).
	Attempts int `json:"attempts,omitempty"`
	// WallMS is the point's host execution time. Nondeterministic:
	// zeroed in the canonical results document (see Results.JSON).
	WallMS float64 `json:"wall_ms,omitempty"`
}

// Aggregate summarizes a campaign deterministically.
type Aggregate struct {
	// Points counts expanded points; Unique counts distinct hashes.
	Points int `json:"points"`
	Unique int `json:"unique"`
	// Models lists the distinct model names, sorted.
	Models []string `json:"models"`
	// Errors counts failed points; Checked and CheckFailures count the
	// trace-equivalence spot checks and their failures.
	Errors        int `json:"errors"`
	Checked       int `json:"checked"`
	CheckFailures int `json:"check_failures"`
	// Degraded counts points served by the single-kernel quarantine
	// rerun; Stalled counts points whose final state carries a stall
	// diagnostic (deadline or watchdog interrupt). Zero — and omitted —
	// on healthy campaigns.
	Degraded int `json:"degraded,omitempty"`
	Stalled  int `json:"stalled,omitempty"`
	// MinSimEndNS/MaxSimEndNS/MeanSimEndNS summarize the final
	// simulated dates across successful points.
	MinSimEndNS  int64   `json:"min_sim_end_ns"`
	MaxSimEndNS  int64   `json:"max_sim_end_ns"`
	MeanSimEndNS float64 `json:"mean_sim_end_ns"`
	// TotalCtxSwitches sums the kernel dispatch counters: the paper's
	// simulation-cost metric, summed over the whole design space.
	TotalCtxSwitches uint64 `json:"total_ctx_switches"`
}

// Timing is the nondeterministic half of a campaign report.
type Timing struct {
	// WallMS is the whole campaign's host duration; PointWallMS sums
	// the per-point durations (compute time if run serially).
	WallMS      float64 `json:"wall_ms"`
	PointWallMS float64 `json:"point_wall_ms"`
	// SpeedupX is PointWallMS / WallMS: the realized parallelism.
	SpeedupX float64 `json:"speedup_x"`
	// Workers echoes the pool size; CacheHits counts points served
	// from the shared engine cache.
	Workers   int `json:"workers"`
	CacheHits int `json:"cache_hits"`
}

// Results is a full campaign report.
type Results struct {
	// Name echoes the set name.
	Name string `json:"name,omitempty"`
	// Points holds one entry per expanded point, in expansion order.
	Points []PointResult `json:"points"`
	// Aggregate is the deterministic summary.
	Aggregate Aggregate `json:"aggregate"`
	// Timing is the nondeterministic summary; omitted by Results.JSON
	// unless requested.
	Timing *Timing `json:"timing,omitempty"`
}

// Run executes the set and blocks until every point completed (or ctx was
// cancelled, which marks the remaining points as errors). The returned
// error covers submission-level problems only — validation, expansion,
// oversize — while per-point failures land in the results.
func Run(ctx context.Context, set scenario.Set, opt Options) (*Results, error) {
	opt.fill()
	points, err := expandChecked(set, opt.MaxPoints)
	if err != nil {
		return nil, err
	}
	return runPoints(ctx, set.Name, points, opt), nil
}

// expandChecked sizes the expansion before materializing it — the count
// (and the scenario.MaxExpansion overflow guard inside it) runs first, so
// an oversize matrix in a small JSON body is rejected without paying for
// a single point.
func expandChecked(set scenario.Set, maxPoints int) ([]scenario.Point, error) {
	n, err := set.NumPoints()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("campaign: the set expands to no points")
	}
	if n > maxPoints {
		return nil, fmt.Errorf("campaign: %d points exceed the %d-point limit", n, maxPoints)
	}
	return set.Expand()
}

// runPoints is the engine core: opt must be filled and points expanded
// and within limits.
func runPoints(ctx context.Context, name string, points []scenario.Point, opt Options) *Results {
	res := &Results{Name: name, Points: make([]PointResult, len(points))}
	// Group by hash: the lowest index computes, the rest copy.
	canonical := map[string]int{}
	var uniques []int
	for i, p := range points {
		res.Points[i] = PointResult{Index: i, Model: p.Model, Hash: p.Hash, Params: p.Params}
		if _, seen := canonical[p.Hash]; !seen {
			canonical[p.Hash] = i
			uniques = append(uniques, i)
		} else {
			res.Points[i].Dedup = true
		}
	}

	var (
		done      atomic.Int64
		cacheHits atomic.Int64
		wg        sync.WaitGroup
		jobs      = make(chan int)
	)
	start := time.Now()
	for w := 0; w < opt.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if opt.Metrics != nil {
					opt.Metrics.ActiveWorkers.Add(1)
				}
				runOne(ctx, &res.Points[idx], points[idx], opt, &cacheHits)
				if opt.Metrics != nil {
					opt.Metrics.ActiveWorkers.Add(-1)
				}
				if opt.onPoint != nil {
					opt.onPoint(res.Points[idx])
				}
				n := int(done.Add(1))
				if opt.OnProgress != nil {
					opt.OnProgress(n, len(uniques))
				}
			}
		}()
	}
	for _, idx := range uniques {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	// Duplicates copy their canonical point's outcome (including its
	// degradation provenance); checks are not repeated (Checked stays
	// false so the flag is deterministic), and Attempts stays zero —
	// the duplicate itself executed nothing.
	for i := range res.Points {
		if !res.Points[i].Dedup {
			continue
		}
		src := &res.Points[canonical[res.Points[i].Hash]]
		res.Points[i].Outcome = src.Outcome
		res.Points[i].Err = src.Err
		res.Points[i].Degraded = src.Degraded
		res.Points[i].Stall = src.Stall
	}

	res.Aggregate = aggregate(res.Points)
	wall := time.Since(start)
	t := &Timing{
		WallMS:    float64(wall.Microseconds()) / 1000,
		Workers:   opt.Workers,
		CacheHits: int(cacheHits.Load()),
	}
	for i := range res.Points {
		t.PointWallMS += res.Points[i].WallMS
	}
	if t.WallMS > 0 {
		t.SpeedupX = t.PointWallMS / t.WallMS
	}
	res.Timing = t
	return res
}

// ErrAbandoned marks an attempt whose model kept running past its
// cancellation plus the abandon grace: the attempt goroutine is left
// behind (it holds no shared state) and the attempt fails. A model that
// honours the cooperative interrupt never produces it.
var ErrAbandoned = fmt.Errorf("campaign: attempt abandoned (model did not stop within the abandon grace)")

// panicError wraps a recovered model panic so the retry logic can
// recognize it (transient: chaos-induced or scheduling-dependent panics
// deserve a retry; deterministic config panics just fail again).
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// transient reports whether an attempt failure is worth retrying or
// degrading: panics, stalls, deadline expiries and abandonments.
// Plain model errors (bad parameters) and the parent context's own
// cancellation are final.
func transient(err error) bool {
	var pe *panicError
	return errors.As(err, &pe) ||
		errors.Is(err, par.ErrStalled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrAbandoned)
}

// shardsOf reads a point's "shards" parameter (the convention every
// shardable model follows); 1 when absent or malformed.
func shardsOf(p scenario.Params) int {
	r := scenario.NewReader(p)
	n := r.Int("shards", 1)
	if r.Err() != nil || n < 1 {
		return 1
	}
	return n
}

// runAttempt executes one model call under the point deadline, the
// stall watchdog and the abandon grace. The default configuration (no
// deadline, non-cancellable parent) stays on the calling goroutine with
// zero overhead; otherwise the attempt runs on its own goroutine so a
// model that ignores the interrupt can be abandoned instead of wedging
// the worker. An abandoned attempt's goroutine writes only to its
// (buffered, private) channel, never to shared state.
func runAttempt(ctx context.Context, opt Options, call func(context.Context) error) error {
	actx := ctx
	if opt.StallWindow > 0 {
		actx = par.WithStallWindow(actx, opt.StallWindow)
	}
	if opt.PointDeadline <= 0 {
		if ctx.Done() == nil {
			return call(actx)
		}
		// Cancellable parent but no deadline: still run on a goroutine
		// so cancellation plus grace cannot wedge the worker forever.
	} else {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(actx, opt.PointDeadline)
		defer cancel()
	}
	res := make(chan error, 1)
	go func() { res <- call(actx) }()
	select {
	case err := <-res:
		return err
	case <-actx.Done():
	}
	// The attempt's context ended; give the cooperative interrupt a
	// grace period to unwind the run before abandoning the goroutine.
	timer := time.NewTimer(opt.AbandonGrace)
	defer timer.Stop()
	select {
	case err := <-res:
		return err
	case <-timer.C:
		return fmt.Errorf("%w after %v + %v grace", ErrAbandoned, opt.PointDeadline, opt.AbandonGrace)
	}
}

// runOne executes (or fetches) one canonical point and its sampled
// check, applying the robustness policy: bounded retries with
// exponential backoff for transient failures, then — for sharded
// points — one quarantined single-kernel degradation rerun.
func runOne(ctx context.Context, pr *PointResult, pt scenario.Point, opt Options, cacheHits *atomic.Int64) {
	model, ok := scenario.Lookup(pt.Model)
	if !ok { // unreachable after Expand validation; belt and braces
		pr.Err = fmt.Sprintf("unknown model %q", pt.Model)
		return
	}
	if err := ctx.Err(); err != nil {
		pr.Err = fmt.Sprintf("cancelled: %v", err)
		return
	}
	if opt.Metrics != nil {
		opt.Metrics.PointsStarted.Inc()
	}
	if opt.live != nil {
		opt.live.started.Add(1)
	}
	start := time.Now()
	if out, hit := opt.Cache.Get(pt.Hash); hit {
		pr.Outcome = &out
		cacheHits.Add(1)
		pr.Cached = true
	} else {
		out, err := runPoint(ctx, model, pt.Params, opt, pr)
		if err != nil {
			pr.Err = err.Error()
		} else {
			pr.Outcome = &out
			if !pr.Degraded {
				// A degraded outcome is not cached: the hash names the
				// sharded point, and the rerun's shard counters differ.
				opt.Cache.Put(pt.Hash, out)
			}
		}
	}
	if pr.Err == "" && opt.CheckEvery > 0 && pr.Index%opt.CheckEvery == 0 && model.Check != nil {
		diff, err := safeCheck(ctx, model, pt.Params, opt)
		if err != nil {
			pr.Err = fmt.Sprintf("check: %v", err)
		} else {
			pr.Checked = true
			pr.CheckDiff = diff
		}
	}
	pr.WallMS = float64(time.Since(start).Microseconds()) / 1000
	observePoint(opt.Metrics, opt.live, pr, pr.Cached)
}

// runPoint drives the attempt loop for one canonical point, recording
// attempt counts and stall diagnostics into pr as it goes.
func runPoint(ctx context.Context, m scenario.Model, params scenario.Params, opt Options, pr *PointResult) (scenario.Outcome, error) {
	record := func(err error) {
		var se *par.StallError
		if errors.As(err, &se) {
			pr.Stall = &se.Diag
		}
	}
	attempts := 0
	backoff := opt.RetryBackoff
	var lastErr error
	for attempts < opt.MaxAttempts {
		if attempts > 0 {
			// Exponential backoff between attempts, cut short by the
			// campaign context.
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return scenario.Outcome{}, lastErr
			}
			backoff *= 2
		}
		attempts++
		out, err := safeRun(ctx, m, params, opt)
		if err == nil {
			if attempts > 1 {
				pr.Attempts = attempts
			}
			return out, nil
		}
		record(err)
		lastErr = err
		if !transient(err) || ctx.Err() != nil {
			pr.Attempts = attempts
			return scenario.Outcome{}, err
		}
	}
	// Quarantine: a sharded point that kept failing transiently is
	// re-run on a single kernel — date-exact by the PR 2/5 equivalence
	// pins, and immune to coordinator-level faults.
	if !opt.NoDegrade && shardsOf(params) > 1 {
		p1 := params.Clone()
		p1["shards"] = 1
		attempts++
		out, err := safeRun(ctx, m, p1, opt)
		pr.Attempts = attempts
		if err == nil {
			pr.Degraded = true
			return out, nil
		}
		record(err)
		return scenario.Outcome{}, fmt.Errorf("%v (degraded rerun also failed: %v)", lastErr, err)
	}
	pr.Attempts = attempts
	return scenario.Outcome{}, lastErr
}

// safeRun runs the model once under the attempt guards, converting a
// panic (bad config deep in a builder, an injected shard fault) into an
// error instead of killing the whole campaign.
func safeRun(ctx context.Context, m scenario.Model, p scenario.Params, opt Options) (out scenario.Outcome, err error) {
	err = runAttempt(ctx, opt, func(actx context.Context) (aerr error) {
		defer func() {
			if r := recover(); r != nil {
				aerr = &panicError{r}
			}
		}()
		out, aerr = m.Run(actx, p)
		return aerr
	})
	if err != nil {
		return scenario.Outcome{}, err
	}
	return out, nil
}

// safeCheck runs the spot check under the same guards (one attempt: the
// check is advisory and never retried or degraded).
func safeCheck(ctx context.Context, m scenario.Model, p scenario.Params, opt Options) (diff string, err error) {
	err = runAttempt(ctx, opt, func(actx context.Context) (aerr error) {
		defer func() {
			if r := recover(); r != nil {
				aerr = &panicError{r}
			}
		}()
		diff, aerr = m.Check(actx, p)
		return aerr
	})
	if err != nil {
		return "", err
	}
	return diff, nil
}

// aggregate folds the per-point reports, iterating in index order so the
// float mean is reproducible.
func aggregate(points []PointResult) Aggregate {
	a := Aggregate{Points: len(points)}
	models := map[string]bool{}
	var sum float64
	var n int
	for i := range points {
		p := &points[i]
		models[p.Model] = true
		if !p.Dedup {
			a.Unique++
		}
		if p.Degraded {
			a.Degraded++
		}
		if p.Stall != nil {
			a.Stalled++
		}
		if p.Err != "" {
			a.Errors++
			continue
		}
		if p.Checked {
			a.Checked++
			if p.CheckDiff != "" {
				a.CheckFailures++
			}
		}
		if p.Outcome == nil {
			continue
		}
		e := p.Outcome.SimEndNS
		if n == 0 || e < a.MinSimEndNS {
			a.MinSimEndNS = e
		}
		if n == 0 || e > a.MaxSimEndNS {
			a.MaxSimEndNS = e
		}
		sum += float64(e)
		n++
		a.TotalCtxSwitches += p.Outcome.CtxSwitches
	}
	if n > 0 {
		a.MeanSimEndNS = sum / float64(n)
	}
	for m := range models {
		a.Models = append(a.Models, m)
	}
	sort.Strings(a.Models)
	return a
}
