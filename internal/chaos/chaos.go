// Package chaos is the fault-injection harness behind the robustness
// contract's soak tests. A Plan compiles into par.Hooks that perturb a
// coordinated run from the inside — scheduling jitter around shard
// steps, withheld bridge exchanges, induced shard panics — without
// touching the model. The package's own tests are the chaos soak: they
// assert that under every perturbation the simulated dates stay
// byte-identical (the conservative protocol's promise), failures
// surface as structured errors rather than hangs, and no goroutines
// leak.
//
// The harness is deliberately deterministic-per-seed: a failing soak
// run reproduces from its printed seed.
package chaos

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/par"
	"repro/internal/sim"
)

// Plan describes one fault-injection schedule.
type Plan struct {
	// Seed drives the jitter and defer-flush draws; same seed, same
	// perturbation schedule (modulo goroutine interleaving, which is
	// exactly what the soak is exercising).
	Seed int64
	// JitterMax, when positive, sleeps each shard worker a random
	// duration in [0, JitterMax) immediately before each kernel step —
	// the "worker descheduled at the worst moment" perturbation.
	JitterMax time.Duration
	// FlushDeferProb is the per-exchange probability that a bridge's
	// writer-side exchange is withheld, leaving its previously
	// published bounds in place until a later exchange or the next
	// rendezvous force-flush.
	FlushDeferProb float64
	// PanicRound, when nonzero, makes every shard listed in PanicShards
	// panic at the top of its first step whose advance ordinal (see
	// par.Hooks.BeforeStep) is at or after PanicRound — the
	// induced-crash perturbation (and, with two or more shards listed,
	// the multi-panic join test).
	PanicRound  uint64
	PanicShards []int
}

// PanicValue is what induced shard panics throw; tests assert on it.
type PanicValue struct{ Shard int }

// Hooks compiles the plan into the par fault-injection surface. The
// returned hooks are safe for concurrent shard workers: the RNG is
// mutex-guarded and sleeps happen outside the lock.
func (p Plan) Hooks() *par.Hooks {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(p.Seed))
	h := &par.Hooks{}
	if p.JitterMax > 0 || p.PanicRound > 0 {
		h.BeforeStep = func(shard int, _ *sim.Kernel, advance uint64) {
			if p.PanicRound > 0 && advance >= p.PanicRound {
				for _, s := range p.PanicShards {
					if s == shard {
						panic(PanicValue{Shard: shard})
					}
				}
			}
			if p.JitterMax > 0 {
				mu.Lock()
				d := time.Duration(rng.Int63n(int64(p.JitterMax)))
				mu.Unlock()
				time.Sleep(d)
			}
		}
	}
	if p.FlushDeferProb > 0 {
		h.DeferFlush = func(_ par.Bridge, _ uint64) bool {
			mu.Lock()
			defer mu.Unlock()
			return rng.Float64() < p.FlushDeferProb
		}
	}
	return h
}
