// Benchmark harness: one benchmark family per figure/table of the paper's
// evaluation (§IV), plus micro-benchmarks for the mechanisms and the
// quantum ablation. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Custom metrics:
//
//	ctxsw/op   — kernel context switches per benchmark iteration
//	err-ns     — max timing error vs the TDless reference (ablation)
//	gain-%     — SoC wall-time gain of smart over sync FIFOs
package repro

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/noc"
	"repro/internal/peq"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// BenchmarkFig5 regenerates Fig. 5: wall time of the three-module system
// vs FIFO depth for untimed / TDless / TDfull. The paper's shape: TDless
// flat; untimed and TDfull falling with depth; TDfull ≈ 2× untimed;
// crossover TDfull-vs-TDless between depth 1 and 2.
func BenchmarkFig5(b *testing.B) {
	const blocks, words = 20, 1000
	for _, depth := range []int{1, 2, 4, 16, 64, 256} {
		for _, m := range []pipeline.Mode{pipeline.Untimed, pipeline.TDless, pipeline.TDfull} {
			b.Run(fmt.Sprintf("%s/depth=%d", m, depth), func(b *testing.B) {
				var sw uint64
				for i := 0; i < b.N; i++ {
					r := pipeline.Run(pipeline.Config{
						Mode: m, Depth: depth, Blocks: blocks, WordsPerBlock: words,
					})
					sw += r.Stats.ContextSwitches
				}
				b.ReportMetric(float64(sw)/float64(b.N), "ctxsw/op")
			})
		}
	}
}

// BenchmarkCaseStudySoC regenerates the §IV-C comparison: the full SoC
// model with sync-on-access FIFOs vs Smart FIFOs at identical accuracy
// (paper: 38.0 s → 21.9 s, −42.3%).
func BenchmarkCaseStudySoC(b *testing.B) {
	cfg := soc.Config{
		Pipelines: 8, Jobs: 4, WordsPerJob: 2048, FIFODepth: 16,
		UseNoC: true, NoCPacketLen: 16, Quantum: 500 * sim.NS, WithDMA: true,
	}
	for _, m := range []soc.FIFOMode{soc.SyncFIFOs, soc.SmartFIFOs} {
		b.Run(m.String(), func(b *testing.B) {
			cfg.Mode = m
			var sw uint64
			for i := 0; i < b.N; i++ {
				r := soc.Run(cfg)
				sw += r.Stats.ContextSwitches
			}
			b.ReportMetric(float64(sw)/float64(b.N), "ctxsw/op")
		})
	}
}

// BenchmarkQuantumAblation compares quantum-keeper decoupling (the TLM-2.0
// state of the art) with the Smart FIFO on the Fig. 5 system: the quantum
// buys speed with timing error, the Smart FIFO needs no quantum and has
// none.
func BenchmarkQuantumAblation(b *testing.B) {
	const blocks, words, depth = 20, 1000, 4
	ref := pipeline.Run(pipeline.Config{
		Mode: pipeline.TDless, Depth: depth, Blocks: blocks, WordsPerBlock: words,
	})
	cases := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"quantum=0", pipeline.Config{Mode: pipeline.Quantum, QuantumValue: 0}},
		{"quantum=100ns", pipeline.Config{Mode: pipeline.Quantum, QuantumValue: 100 * sim.NS}},
		{"quantum=1us", pipeline.Config{Mode: pipeline.Quantum, QuantumValue: sim.US}},
		{"quantum=10us", pipeline.Config{Mode: pipeline.Quantum, QuantumValue: 10 * sim.US}},
		{"smartfifo", pipeline.Config{Mode: pipeline.TDfull}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			c.cfg.Depth = depth
			c.cfg.Blocks = blocks
			c.cfg.WordsPerBlock = words
			var err sim.Time
			for i := 0; i < b.N; i++ {
				r := pipeline.Run(c.cfg)
				err = pipeline.MaxTimingError(ref, r)
			}
			b.ReportMetric(float64(err/sim.NS), "err-ns")
		})
	}
}

// BenchmarkSmartFIFOOps measures the per-access cost of the Smart FIFO in
// the hot no-context-switch path (deep FIFO, decoupled sides): the "more
// computations ... cost of timing accuracy" of §IV-B.
func BenchmarkSmartFIFOOps(b *testing.B) {
	k := sim.NewKernel("bench")
	f := core.NewSmart[int](k, "f", 1<<16)
	n := b.N
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Write(i)
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Read()
			p.Inc(sim.NS)
		}
	})
	b.ResetTimer()
	k.Run(sim.RunForever)
}

// BenchmarkWriteBurst measures the per-word cost of moving chunks into the
// Smart FIFO: the bulk run-based fast path ("bulk") versus the equivalent
// scalar Write loop ("scalar"). b.N counts words, so ns/op is ns/word; the
// bulk path must stay ≥ 5× cheaper and allocation-free.
func BenchmarkWriteBurst(b *testing.B) {
	const chunk = 256
	for _, impl := range []string{"bulk", "scalar"} {
		b.Run(impl, func(b *testing.B) {
			k := sim.NewKernel("bench")
			f := core.NewSmart[uint32](k, "f", 1<<12)
			wbuf := make([]uint32, chunk)
			rbuf := make([]uint32, chunk)
			n := (b.N/chunk + 1) * chunk
			k.Thread("writer", func(p *sim.Process) {
				for done := 0; done < n; done += chunk {
					if impl == "bulk" {
						f.WriteBurst(wbuf, sim.NS)
					} else {
						for i := range wbuf {
							if i > 0 {
								p.Inc(sim.NS)
							}
							f.Write(wbuf[i])
						}
					}
					p.Inc(sim.NS)
				}
			})
			k.Thread("reader", func(p *sim.Process) {
				for done := 0; done < n; done += chunk {
					f.ReadBurst(rbuf, sim.NS)
					p.Inc(sim.NS)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			k.Run(sim.RunForever)
			k.Shutdown()
		})
	}
}

// BenchmarkReadBurst is the read-side mirror of BenchmarkWriteBurst: bulk
// ReadBurst versus the scalar Read loop, with a bulk writer feeding both.
func BenchmarkReadBurst(b *testing.B) {
	const chunk = 256
	for _, impl := range []string{"bulk", "scalar"} {
		b.Run(impl, func(b *testing.B) {
			k := sim.NewKernel("bench")
			f := core.NewSmart[uint32](k, "f", 1<<12)
			wbuf := make([]uint32, chunk)
			rbuf := make([]uint32, chunk)
			n := (b.N/chunk + 1) * chunk
			k.Thread("writer", func(p *sim.Process) {
				for done := 0; done < n; done += chunk {
					f.WriteBurst(wbuf, sim.NS)
					p.Inc(sim.NS)
				}
			})
			k.Thread("reader", func(p *sim.Process) {
				for done := 0; done < n; done += chunk {
					if impl == "bulk" {
						f.ReadBurst(rbuf, sim.NS)
					} else {
						for i := range rbuf {
							if i > 0 {
								p.Inc(sim.NS)
							}
							rbuf[i] = f.Read()
						}
					}
					p.Inc(sim.NS)
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			k.Run(sim.RunForever)
			k.Shutdown()
		})
	}
}

// BenchmarkShardedWriteBurst measures the bridge endpoints' bulk path:
// chunked writes and reads across a ShardedFIFO with coordinator flushes.
func BenchmarkShardedWriteBurst(b *testing.B) {
	const chunk = 256
	k := sim.NewKernel("bench")
	f := core.NewSharded[uint32](k, k, "f", 1<<12)
	wbuf := make([]uint32, chunk)
	rbuf := make([]uint32, chunk)
	n := (b.N/chunk + 1) * chunk
	k.Thread("writer", func(p *sim.Process) {
		w := f.Writer()
		for done := 0; done < n; done += chunk {
			w.WriteBurst(wbuf, sim.NS)
			p.Inc(sim.NS)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		r := f.Reader()
		for done := 0; done < n; done += chunk {
			r.ReadBurst(rbuf, sim.NS)
			p.Inc(sim.NS)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	var end sim.Time
	for {
		end += 100 * sim.US
		k.Run(end)
		if !f.Flush() && len(k.Blocked()) == 0 {
			break
		}
	}
	k.Shutdown()
}

// BenchmarkBurstPipeline regenerates the burst-dominated Fig. 5 row: the
// chunked three-module model on the bulk fast paths (TDburst) versus the
// word-at-a-time TDfull build.
func BenchmarkBurstPipeline(b *testing.B) {
	const blocks, words = 20, 1000
	for _, depth := range []int{64, 1024} {
		for _, burst := range []int{0, 64} {
			name := fmt.Sprintf("depth=%d/burst=%d", depth, burst)
			b.Run(name, func(b *testing.B) {
				var sw uint64
				for i := 0; i < b.N; i++ {
					r := pipeline.Run(pipeline.Config{
						Mode: pipeline.TDfull, Depth: depth, Blocks: blocks,
						WordsPerBlock: words, Burst: burst,
					})
					sw += r.Stats.ContextSwitches
				}
				b.ReportMetric(float64(sw)/float64(b.N), "ctxsw/op")
			})
		}
	}
}

// BenchmarkRegularFIFOOps is the baseline for BenchmarkSmartFIFOOps with a
// plain (untimed) FIFO of the same depth.
func BenchmarkRegularFIFOOps(b *testing.B) {
	k := sim.NewKernel("bench")
	f := fifo.New[int](k, "f", 1<<16)
	n := b.N
	k.Thread("writer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Write(i)
		}
	})
	k.Thread("reader", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			f.Read()
		}
	})
	b.ResetTimer()
	k.Run(sim.RunForever)
}

// BenchmarkContextSwitch measures one kernel thread context switch (a
// Wait round trip): the cost the Smart FIFO exists to avoid.
func BenchmarkContextSwitch(b *testing.B) {
	k := sim.NewKernel("bench")
	n := b.N
	k.Thread("p", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Wait(sim.NS)
		}
	})
	b.ResetTimer()
	k.Run(sim.RunForever)
}

// BenchmarkInc measures the decoupled alternative to a context switch: a
// local-time increment.
func BenchmarkInc(b *testing.B) {
	k := sim.NewKernel("bench")
	n := b.N
	k.Thread("p", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Inc(sim.NS)
		}
		p.Sync()
	})
	b.ResetTimer()
	k.Run(sim.RunForever)
}

// BenchmarkBlockPolicy compares the §III-A blocking policies on a
// blocking-heavy (depth-1 ping-pong) workload: the paper's sync-then-wait
// versus the Kahn-only wait-only variant.
func BenchmarkBlockPolicy(b *testing.B) {
	for _, pol := range []core.BlockPolicy{core.SyncThenWait, core.WaitOnly} {
		b.Run(pol.String(), func(b *testing.B) {
			k := sim.NewKernel("bench")
			f := core.NewSmart[int](k, "f", 1)
			f.SetBlockPolicy(pol)
			n := b.N
			k.Thread("writer", func(p *sim.Process) {
				for i := 0; i < n; i++ {
					f.Write(i)
					p.Inc(3 * sim.NS)
				}
			})
			k.Thread("reader", func(p *sim.Process) {
				for i := 0; i < n; i++ {
					f.Read()
					p.Inc(7 * sim.NS)
				}
			})
			b.ResetTimer()
			k.Run(sim.RunForever)
			b.ReportMetric(float64(k.Stats().ContextSwitches)/float64(b.N), "ctxsw/op")
		})
	}
}

// BenchmarkArbiter measures the method-process arbiter forwarding path.
func BenchmarkArbiter(b *testing.B) {
	k := sim.NewKernel("bench")
	out := core.NewSmart[int](k, "out", 1<<12)
	a := core.NewArbiter[int](k, "arb", out, 4, 64, sim.NS)
	n := b.N
	for c := 0; c < 4; c++ {
		c := c
		k.Thread(fmt.Sprintf("client%d", c), func(p *sim.Process) {
			for i := 0; i < (n+3)/4; i++ {
				a.In(c).Write(i)
				p.Inc(4 * sim.NS)
			}
		})
	}
	k.Thread("sink", func(p *sim.Process) {
		for i := 0; i < 4*((n+3)/4); i++ {
			out.Read()
		}
	})
	b.ResetTimer()
	k.Run(sim.RunForever)
	k.Shutdown()
}

// BenchmarkNoCStream measures end-to-end NoC throughput: one stream across
// a 4x2 mesh, Smart FIFO endpoints, packetizing NIs, method routers.
func BenchmarkNoCStream(b *testing.B) {
	k := sim.NewKernel("bench")
	m := noc.NewMesh(k, "noc", noc.Config{Width: 4, Height: 2, Cycle: sim.NS, FIFODepth: 4})
	src := core.NewSmart[uint32](k, "src", 64)
	dst := core.NewSmart[uint32](k, "dst", 64)
	m.AttachNI("in", 0, 0, src, nil, noc.NIConfig{PacketLen: 8, Cycle: sim.NS, Dst: m.RouterIndex(3, 1)})
	m.AttachNI("out", 3, 1, nil, dst, noc.NIConfig{PacketLen: 8, Cycle: sim.NS})
	n := (b.N/8 + 1) * 8
	k.Thread("producer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			src.Write(uint32(i))
			p.Inc(2 * sim.NS)
		}
	})
	k.Thread("consumer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			dst.Read()
		}
	})
	b.ResetTimer()
	k.Run(sim.RunForever)
	k.Shutdown()
}

// BenchmarkPEQ measures the TLM payload-event-queue baseline the Smart
// FIFO generalizes.
func BenchmarkPEQ(b *testing.B) {
	k := sim.NewKernel("bench")
	q := peq.New[int](k, "q")
	n := b.N
	k.Thread("producer", func(p *sim.Process) {
		for i := 0; i < n; i++ {
			p.Inc(sim.NS)
			q.Notify(i, 0)
		}
	})
	k.Thread("consumer", func(p *sim.Process) {
		for got := 0; got < n; {
			_, ok := q.Get()
			if !ok {
				p.WaitEvent(q.Event())
				continue
			}
			got++
		}
	})
	b.ResetTimer()
	k.Run(sim.RunForever)
	k.Shutdown()
}

// BenchmarkMonitorSize measures the O(depth) monitor access (§III-C),
// which the paper accepts because monitor accesses are rare.
func BenchmarkMonitorSize(b *testing.B) {
	for _, depth := range []int{8, 64, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			k := sim.NewKernel("bench")
			f := core.NewSmart[int](k, "f", depth)
			n := b.N
			k.Thread("writer", func(p *sim.Process) {
				for i := 0; i < depth/2; i++ {
					f.Write(i)
					p.Inc(sim.NS)
				}
			})
			k.Thread("monitor", func(p *sim.Process) {
				p.Wait(sim.Time(depth) * sim.NS)
				s := 0
				for i := 0; i < n; i++ {
					s += f.Size()
				}
				_ = s
			})
			b.ResetTimer()
			k.Run(sim.RunForever)
			k.Shutdown()
		})
	}
}

// BenchmarkShardedPipeline measures the conservative multi-kernel
// execution of the Fig. 5 model: the same TDfull build partitioned over
// 1..3 kernels by internal/par, with the FIFOs as ShardedFIFO bridges.
// On a multi-core host the 3-shard run should beat single-kernel TDfull;
// advances/op counts the kernel advances the coordinator dispatched.
func BenchmarkShardedPipeline(b *testing.B) {
	const blocks, words = 20, 1000
	for _, depth := range []int{16, 256} {
		for _, shards := range []int{2, 3} {
			b.Run(fmt.Sprintf("depth=%d/shards=%d", depth, shards), func(b *testing.B) {
				var advances uint64
				for i := 0; i < b.N; i++ {
					r := pipeline.Run(pipeline.Config{
						Mode: pipeline.TDfull, Depth: depth, Shards: shards,
						Blocks: blocks, WordsPerBlock: words,
					})
					advances += r.Advances
				}
				b.ReportMetric(float64(advances)/float64(b.N), "advances/op")
			})
		}
	}
}

// BenchmarkClusteredSoC measures the clustered SoC variant on 1 vs N
// kernels: the speedup axis of the sharded execution.
func BenchmarkClusteredSoC(b *testing.B) {
	cfg := soc.Config{Pipelines: 4, Jobs: 2, WordsPerJob: 512, FIFODepth: 16, Seed: 7}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var advances uint64
			for i := 0; i < b.N; i++ {
				r := soc.RunClustered(cfg, shards)
				advances += r.Advances
			}
			b.ReportMetric(float64(advances)/float64(b.N), "advances/op")
		})
	}
}
