package main

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/netlist"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// Unit-cost calibration for the traced run: each cost is measured by
// timing calls into one layer's public API from this file, repeated
// calibReps times, and reported as the median.

const calibReps = 5

// calibrate measures every unit cost into b.fixed.
func calibrate(b *bench) error {
	med := func(name string, f func() float64) {
		var xs []float64
		for i := 0; i < calibReps; i++ {
			runtime.GC()
			xs = append(xs, f())
		}
		b.fixed[name] = median(xs)
	}
	med("sim.switch_ns", switchNS)
	med("sim.kernel_spawn_us", kernelSpawnUS)
	med("core.smart_op_ns", smartOpNS)
	med("core.burst_word_ns", burstWordNS)
	sw := b.fixed["sim.switch_ns"]
	var net []float64
	med("fifo.sync_op_ns", func() float64 {
		gross, switchesPerPair := syncOpNS()
		net = append(net, max(0, gross-switchesPerPair*sw))
		return gross
	})
	b.fixed["fifo.sync_op_net_ns"] = median(net)
	var err error
	med("netlist.build_ms", func() float64 {
		ms, e := buildMS()
		if e != nil {
			err = e
		}
		return ms
	})
	if err != nil {
		return err
	}
	p50, p90, err := appendSyncUS()
	if err != nil {
		return err
	}
	b.fixed["store.append_sync_us_p50"] = p50
	b.fixed["store.append_sync_us_p90"] = p90
	return nil
}

// switchNS times a two-thread ping-pong: each thread waits 1 ns per
// iteration, so every iteration is one context switch per thread.
func switchNS() float64 {
	const n = 100_000
	k := sim.NewKernel("calib-switch")
	for _, name := range []string{"ping", "pong"} {
		k.Thread(name, func(p *sim.Process) {
			for i := 0; i < n; i++ {
				p.Wait(sim.NS)
			}
		})
	}
	t0 := time.Now()
	k.Run(sim.RunForever)
	d := time.Since(t0)
	k.Shutdown()
	return float64(d.Nanoseconds()) / float64(k.Stats().ContextSwitches)
}

// kernelSpawnUS times NewKernel + 8 threads + Run + Shutdown.
func kernelSpawnUS() float64 {
	const reps, threads = 200, 8
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		k := sim.NewKernel("calib-spawn")
		for i := 0; i < threads; i++ {
			k.Thread("t", func(p *sim.Process) { p.Wait(sim.NS) })
		}
		k.Run(sim.RunForever)
		k.Shutdown()
	}
	return float64(time.Since(t0).Microseconds()) / reps
}

// smartOpNS times Write+Read pairs through a deep Smart FIFO whose sides
// are decoupled, so no access blocks.
func smartOpNS() float64 {
	const n = 200_000
	k := sim.NewKernel("calib-smart")
	f := core.NewSmart[uint32](k, "f", 1<<18)
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Write(uint32(i))
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Read()
			p.Inc(sim.NS)
		}
	})
	t0 := time.Now()
	k.Run(sim.RunForever)
	d := time.Since(t0)
	k.Shutdown()
	return float64(d.Nanoseconds()) / n
}

// burstWordNS times words moved by WriteBurst/ReadBurst in chunks of 64.
func burstWordNS() float64 {
	const chunk, n = 64, 1 << 20
	k := sim.NewKernel("calib-burst")
	f := core.NewSmart[uint32](k, "f", 1<<12)
	wbuf, rbuf := make([]uint32, chunk), make([]uint32, chunk)
	k.Thread("writer", func(p *sim.Process) {
		for done := 0; done < n; done += chunk {
			f.WriteBurst(wbuf, sim.NS)
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for done := 0; done < n; done += chunk {
			f.ReadBurst(rbuf, sim.NS)
			p.Inc(sim.NS)
		}
	})
	t0 := time.Now()
	k.Run(sim.RunForever)
	d := time.Since(t0)
	k.Shutdown()
	return float64(d.Nanoseconds()) / n
}

// syncOpNS times Write+Read pairs through a SyncFIFO (which synchronizes
// on every access) and returns the cost per pair with the context
// switches per pair it included.
func syncOpNS() (nsPerPair, switchesPerPair float64) {
	const n = 50_000
	k := sim.NewKernel("calib-sync")
	f := fifo.NewSync[uint32](k, "f", 16)
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Write(uint32(i))
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Read()
			p.Inc(sim.NS)
		}
	})
	t0 := time.Now()
	k.Run(sim.RunForever)
	d := time.Since(t0)
	k.Shutdown()
	return float64(d.Nanoseconds()) / n, float64(k.Stats().ContextSwitches) / n
}

// buildMS times Graph.Build of a generated 32x32 mesh over two shards.
func buildMS() (float64, error) {
	g, _, err := netlist.NewTopoGraph(netlist.Topo{
		Kind: "mesh", Width: 32, Height: 32, Depth: 4, Words: 4,
		Decoupled: true, RateSeed: 1, PaySeed: 2,
	})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	built, err := g.Build(netlist.Options{Shards: 2, Partitioner: netlist.MinCut, Impl: netlist.Smart})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	built.Shutdown()
	return float64(d.Microseconds()) / 1000, nil
}

// appendSyncUS times PointCompleted + Sync on a fresh journal, one record
// at a time, and returns the median and the 90th percentile.
func appendSyncUS() (p50, p90 float64, err error) {
	const n = 200
	dir, err := os.MkdirTemp("", "perfbench-calib-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, _, err := store.Open(filepath.Join(dir, "wal"), store.Options{})
	if err != nil {
		return 0, 0, err
	}
	out := &scenario.Outcome{SimEndNS: 1, Checksums: []uint64{1}, DatesHash: "1:0000000000000001"}
	var xs []float64
	for i := 0; i < n; i++ {
		hash := scenario.NewDigest()
		hash.U64(uint64(i))
		t0 := time.Now()
		if err := st.PointCompleted(hash.Sum(), out); err != nil {
			st.Close()
			return 0, 0, err
		}
		if err := st.Sync(); err != nil {
			st.Close()
			return 0, 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1000)
	}
	if err := st.Close(); err != nil {
		return 0, 0, err
	}
	return median(xs), percentile(xs, 90), nil
}
