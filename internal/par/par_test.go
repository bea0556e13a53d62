package par_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/trace"
)

// prodRate/consRate give varying per-item periods so producer and consumer
// alternate between running ahead and lagging.
func prodRate(i int) sim.Time {
	return sim.Time(3+i%5) * sim.NS
}

func consRate(i int) sim.Time {
	return sim.Time(2+(i/7)%6) * sim.NS
}

// runSmartRef runs the producer/consumer pair on one kernel over a plain
// SmartFIFO and records the consumer's dated pops: the timing reference.
func runSmartRef(t *testing.T, depth, n int) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder()
	k := sim.NewKernel("ref")
	f := core.NewSmart[int](k, "ch", depth)
	k.Thread("producer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Inc(prodRate(i))
			f.Write(i * 3)
		}
	})
	k.Thread("consumer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			v := f.Read()
			p.Inc(consRate(i))
			rec.Logf(p, "pop %d", v)
		}
	})
	k.Run(sim.RunForever)
	k.Shutdown()
	return rec
}

// runSharded runs the same pair split across two shards over a
// ShardedFIFO bridge.
func runSharded(t *testing.T, depth, n int) (*trace.Recorder, *par.Coordinator) {
	t.Helper()
	rec := trace.NewRecorder()
	kw := sim.NewKernel("shard.w")
	kr := sim.NewKernel("shard.r")
	f := core.NewSharded[int](kw, kr, "ch", depth)
	kw.Thread("producer", func(p *sim.Process) {
		w := f.Writer()
		for i := 0; i < n; i++ {
			p.Inc(prodRate(i))
			w.Write(i * 3)
		}
	})
	kr.Thread("consumer", func(p *sim.Process) {
		r := f.Reader()
		for i := 0; i < n; i++ {
			v := r.Read()
			p.Inc(consRate(i))
			rec.Logf(p, "pop %d", v)
		}
	})
	c := par.NewCoordinator()
	c.AddShard(kw)
	c.AddShard(kr)
	c.AddBridge(f)
	c.Run(sim.RunForever)
	return rec, c
}

// TestShardedFIFOMatchesSmart pins the headline bridge property: a
// two-shard run over a ShardedFIFO produces exactly the dates and values
// of a one-kernel run over a SmartFIFO, at every depth.
func TestShardedFIFOMatchesSmart(t *testing.T) {
	for _, depth := range []int{1, 2, 7, 64} {
		ref := runSmartRef(t, depth, 500)
		got, c := runSharded(t, depth, 500)
		if d := trace.Diff(ref, got); d != "" {
			t.Errorf("depth %d: sharded trace differs from SmartFIFO reference:\n%s", depth, d)
		}
		if blocked := c.Blocked(); len(blocked) != 0 {
			t.Errorf("depth %d: blocked shards after clean run: %v", depth, blocked)
		}
		c.Shutdown()
	}
}

// TestShardedSelfBridge runs both endpoints on the same kernel: the
// degenerate 1-shard mapping every sharded model must support.
func TestShardedSelfBridge(t *testing.T) {
	ref := runSmartRef(t, 4, 300)
	rec := trace.NewRecorder()
	k := sim.NewKernel("solo")
	f := core.NewSharded[int](k, k, "ch", 4)
	k.Thread("producer", func(p *sim.Process) {
		for i := 0; i < 300; i++ {
			p.Inc(prodRate(i))
			f.Writer().Write(i * 3)
		}
	})
	k.Thread("consumer", func(p *sim.Process) {
		for i := 0; i < 300; i++ {
			v := f.Reader().Read()
			p.Inc(consRate(i))
			rec.Logf(p, "pop %d", v)
		}
	})
	c := par.NewCoordinator()
	c.AddShard(k)
	c.AddBridge(f)
	c.Run(sim.RunForever)
	defer c.Shutdown()
	if d := trace.Diff(ref, rec); d != "" {
		t.Fatalf("self-bridge trace differs from SmartFIFO reference:\n%s", d)
	}
}

// TestShardedChain runs a three-stage chain over two bridges on three
// shards, with a middle stage that transforms data, and checks values and
// final dates against a one-kernel SmartFIFO build of the same model.
func TestShardedChain(t *testing.T) {
	const n = 400
	build := func(k1, k2, k3 *sim.Kernel, mk func(a, b *sim.Kernel, name string) (w interface{ Write(int) }, r interface{ Read() int }), rec *trace.Recorder) {
		w1, r1 := mk(k1, k2, "c1")
		w2, r2 := mk(k2, k3, "c2")
		k1.Thread("src", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				p.Inc(prodRate(i))
				w1.Write(i)
			}
		})
		k2.Thread("mid", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				v := r1.Read()
				p.Inc(2 * sim.NS)
				w2.Write(v ^ 0x55)
			}
		})
		k3.Thread("dst", func(p *sim.Process) {
			for i := 0; i < n; i++ {
				v := r2.Read()
				p.Inc(consRate(i))
				rec.Logf(p, "out %d", v)
			}
		})
	}

	ref := trace.NewRecorder()
	k := sim.NewKernel("mono")
	build(k, k, k, func(a, b *sim.Kernel, name string) (interface{ Write(int) }, interface{ Read() int }) {
		f := core.NewSmart[int](a, name, 8)
		return f, f
	}, ref)
	k.Run(sim.RunForever)
	k.Shutdown()

	got := trace.NewRecorder()
	ks := []*sim.Kernel{sim.NewKernel("s0"), sim.NewKernel("s1"), sim.NewKernel("s2")}
	c := par.NewCoordinator()
	for _, sk := range ks {
		c.AddShard(sk)
	}
	build(ks[0], ks[1], ks[2], func(a, b *sim.Kernel, name string) (interface{ Write(int) }, interface{ Read() int }) {
		f := core.NewSharded[int](a, b, name, 8)
		c.AddBridge(f)
		return f.Writer(), f.Reader()
	}, got)
	c.Run(sim.RunForever)
	defer c.Shutdown()

	if d := trace.Diff(ref, got); d != "" {
		t.Fatalf("3-shard chain differs from 1-kernel reference:\n%s", d)
	}
	if st := c.Stats(); st.Advances == 0 || st.Flushes == 0 {
		t.Fatalf("coordinator did no sharded work: %+v", st)
	}
}

// TestCoordinatorHorizonThrottlesFreeRunner checks the conservative
// contract: a process that advances time freely (a poller) on the reading
// shard is bounded by the inbound frontier, so its shard advances in
// step with the writer instead of blasting ahead — visible as many
// advances instead of one. All mutable state stays shard-local;
// only the bridge crosses the boundary.
func TestCoordinatorHorizonThrottlesFreeRunner(t *testing.T) {
	const n = 50
	kw := sim.NewKernel("w")
	kr := sim.NewKernel("r")
	f := core.NewSharded[int](kw, kr, "ch", 4)
	kw.Thread("producer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Wait(10 * sim.NS) // synchronized writer: frontier == kernel date
			f.Writer().Write(i)
		}
	})
	var got int
	done := false
	kr.Thread("consumer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			if v := f.Reader().Read(); v == i {
				got++
			}
		}
		done = true
	})
	var polls int
	kr.Thread("poller", func(p *sim.Process) {
		for !done {
			p.Wait(1 * sim.NS)
			polls++
		}
	})
	c := par.NewCoordinator()
	c.AddShard(kw)
	c.AddShard(kr)
	c.AddBridge(f)
	c.Run(sim.RunForever)
	defer c.Shutdown()
	if got != n {
		t.Fatalf("consumer saw %d/%d values", got, n)
	}
	// The poller runs at 1ns; the producer commits 10ns at a time with a
	// 4-deep credit window, so the reader shard needs many separate
	// advances to cover the stream — a single blast to quiescence would
	// mean the horizon did not throttle it.
	if st := c.Stats(); st.Advances < uint64(n)/4 {
		t.Errorf("only %d advances for %d credit-limited writes: horizon not throttling", st.Advances, n)
	}
	if polls == 0 {
		t.Error("poller never ran")
	}
}

// TestFallbackBreaksFrontierStall: a writer that parks forever (like an
// idle accelerator waiting for its next job) freezes its bridge's
// frontier, so the reading shard's remaining timed work can only proceed
// through the coordinator's global-minimum fallback.
func TestFallbackBreaksFrontierStall(t *testing.T) {
	ka := sim.NewKernel("a")
	kb := sim.NewKernel("b")
	f := core.NewSharded[int](ka, kb, "ch", 2)
	parkForever := sim.NewEvent(ka, "never")
	ka.Thread("writer", func(p *sim.Process) {
		f.Writer().Write(1)
		p.WaitEvent(parkForever) // parked, not terminated: frontier freezes
	})
	var got bool
	kb.Thread("reader", func(p *sim.Process) {
		got = f.Reader().Read() == 1
	})
	const polls = 40
	var ticked int
	kb.Thread("poller", func(p *sim.Process) {
		for i := 0; i < polls; i++ {
			p.Wait(5 * sim.NS)
			ticked++
		}
	})
	c := par.NewCoordinator()
	c.AddShard(ka)
	c.AddShard(kb)
	c.AddBridge(f)
	c.Run(sim.RunForever)
	defer c.Shutdown()
	if !got || ticked != polls {
		t.Fatalf("got=%v ticked=%d/%d: run did not complete", got, ticked, polls)
	}
	if st := c.Stats(); st.Fallbacks == 0 {
		t.Errorf("expected fallback rounds against a frozen frontier, stats %+v", st)
	}
	if b := c.Blocked(); len(b["a"]) != 1 || b["a"][0] != "writer" {
		t.Errorf("want parked writer reported on shard a, got %v", b)
	}
}

// TestBlockedPerShard: a starved consumer shard is reported by Blocked
// under its shard's name.
func TestBlockedPerShard(t *testing.T) {
	kw := sim.NewKernel("w")
	kr := sim.NewKernel("r")
	f := core.NewSharded[int](kw, kr, "ch", 2)
	kw.Thread("producer", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			p.Inc(sim.NS)
			f.Writer().Write(i)
		}
	})
	kr.Thread("consumer", func(p *sim.Process) {
		for i := 0; i < 10; i++ { // wants more than the producer sends
			f.Reader().Read()
		}
	})
	c := par.NewCoordinator()
	c.AddShard(kw)
	c.AddShard(kr)
	c.AddBridge(f)
	c.Run(sim.RunForever)
	defer c.Shutdown()
	blocked := c.Blocked()
	if len(blocked["w"]) != 0 {
		t.Errorf("writer shard unexpectedly blocked: %v", blocked["w"])
	}
	if len(blocked["r"]) != 1 || blocked["r"][0] != "consumer" {
		t.Errorf("want consumer blocked on shard r, got %v", blocked)
	}
}

// TestCoordinatorRunLimit: Run(limit) stops with work pending beyond the
// limit and resumes exactly.
func TestCoordinatorRunLimit(t *testing.T) {
	kw := sim.NewKernel("w")
	kr := sim.NewKernel("r")
	f := core.NewSharded[int](kw, kr, "ch", 8)
	const n = 20
	kw.Thread("producer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Wait(10 * sim.NS)
			f.Writer().Write(i)
		}
	})
	var dates []sim.Time
	kr.Thread("consumer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Reader().Read()
			dates = append(dates, p.LocalTime())
		}
	})
	c := par.NewCoordinator()
	c.AddShard(kw)
	c.AddShard(kr)
	c.AddBridge(f)
	c.Run(55 * sim.NS)
	defer c.Shutdown()
	if len(dates) >= n {
		t.Fatalf("limit 55ns: consumer finished all %d pops", n)
	}
	mid := len(dates)
	if mid < 3 {
		t.Fatalf("limit 55ns: only %d pops happened", mid)
	}
	c.Run(sim.RunForever)
	if len(dates) != n {
		t.Fatalf("resume: got %d/%d pops", len(dates), n)
	}
	for i := 1; i < n; i++ {
		if dates[i] < dates[i-1] {
			t.Fatalf("pop dates went backwards at %d: %v", i, dates)
		}
	}
}
