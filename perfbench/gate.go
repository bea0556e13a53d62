package main

import (
	"fmt"
	"slices"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// gate counts the run's correctness checks. Every check carries a key
// that names the comparison it makes (a Fig. 5 row, a SoC run, a campaign
// group kind) and not the pass it ran in. attempted counts the distinct
// keys and failed the keys that failed at least once, so that two runs of
// the same code report the same counts however many passes their timed
// phase fits: every pass still re-checks every key, and one failure in any
// pass fails the key. checks and checkFailures count single comparisons.
//
// A failed check is unexpected unless it is a known defect: known defects
// still count as failed operations, but they do not make the run
// incorrect.
type gate struct {
	passed                map[string]bool
	checks, checkFailures int
	unexpected            []string
	known                 map[string]int
}

// check records one gated comparison under key.
func (g *gate) check(key string, ok bool, format string, args ...any) {
	if !g.record(key, ok) && len(g.unexpected) < 20 {
		g.unexpected = append(g.unexpected, fmt.Sprintf(format, args...))
	}
}

// checkKnown records a comparison under key that fails on a known defect.
func (g *gate) checkKnown(key string, ok bool, defect string) {
	if g.record(key, ok) {
		return
	}
	if g.known == nil {
		g.known = map[string]int{}
	}
	g.known[defect]++
}

func (g *gate) record(key string, ok bool) bool {
	if g.passed == nil {
		g.passed = map[string]bool{}
	}
	prev, seen := g.passed[key]
	g.passed[key] = ok && (prev || !seen)
	g.checks++
	if !ok {
		g.checkFailures++
	}
	return ok
}

// attempted is the number of distinct comparisons the run made.
func (g *gate) attempted() int { return len(g.passed) }

// failed is the number of distinct comparisons that failed at least once.
func (g *gate) failed() int { return len(g.failedKeys()) }

// failedKeys lists the keys that failed at least once, sorted.
func (g *gate) failedKeys() []string {
	var keys []string
	for k, ok := range g.passed {
		if !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// datesDigest digests one run's dated completion log, one slice per sink.
func datesDigest(dates ...[]sim.Time) string {
	d := scenario.NewDigest()
	for _, ds := range dates {
		d.Times(ds)
	}
	return d.Sum()
}

// sameDates reports whether two runs completed the same blocks or jobs at
// the same dates.
func sameDates(a, b [][]sim.Time) bool {
	return slices.EqualFunc(a, b, slices.Equal)
}

// digestCheck compares a run's dates digest with the one recorded for its
// row; a row without a recorded digest fails, so that a renamed or added
// row cannot go unchecked. The digest is also kept in observed, which
// --digests-out writes out when a model change means re-recording.
func digestCheck(g *gate, observed, recorded map[string]string, row, got string) {
	observed[row] = got
	want, ok := recorded[row]
	g.check("digest "+row, ok && want == got, "%s: dates digest %s, recorded %q", row, got, want)
}
