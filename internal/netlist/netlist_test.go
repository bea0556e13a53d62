package netlist

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// smallGraph wires a 3-stage chain by hand (source -> f1 -> relay -> f2 ->
// sink) and returns the graph plus the result slots.
func smallGraph(words, depth int) (*Graph, *[]sim.Time, *uint64) {
	g := New("small")
	f1 := AddChan[uint32](g, "f1", depth)
	f2 := AddChan[uint32](g, "f2", depth)
	dates := &[]sim.Time{}
	sum := new(uint64)

	src := g.Thread("source", nil)
	o1 := f1.Output(src)
	src.body = func(p *sim.Process) {
		w := o1.End()
		for i := 0; i < words; i++ {
			w.Write(workload.WordAt(7, i))
			p.Inc(3 * sim.NS)
		}
	}
	rel := g.Thread("relay", nil)
	i1, o2 := f1.Input(rel), f2.Output(rel)
	rel.body = func(p *sim.Process) {
		r, w := i1.End(), o2.End()
		for i := 0; i < words; i++ {
			v := r.Read()
			p.Inc(2 * sim.NS)
			w.Write(v ^ 0xffff)
		}
	}
	snk := g.Thread("sink", nil)
	i2 := f2.Input(snk)
	snk.body = func(p *sim.Process) {
		r := i2.End()
		for i := 0; i < words; i++ {
			v := r.Read()
			p.Inc(5 * sim.NS)
			*sum = workload.Checksum(*sum, v)
			*dates = append(*dates, p.LocalTime())
		}
	}
	return g, dates, sum
}

// TestBuildShardEquivalence pins the bridge auto-insertion contract: the
// same graph built on 1, 2 and 3 kernels produces identical dated logs
// and checksums.
func TestBuildShardEquivalence(t *testing.T) {
	run := func(shards int, part Partitioner) ([]sim.Time, uint64, *Build) {
		g, dates, sum := smallGraph(40, 4)
		b, err := g.Build(Options{Shards: shards, Partitioner: part})
		if err != nil {
			t.Fatalf("Build(%d): %v", shards, err)
		}
		b.Run(sim.RunForever)
		if bl := b.Blocked(); len(bl) != 0 {
			t.Fatalf("Build(%d): blocked %v", shards, bl)
		}
		b.Shutdown()
		return *dates, *sum, b
	}
	refDates, refSum, refB := run(1, nil)
	if refB.Crossings != 0 || refB.Coord != nil {
		t.Fatalf("single-kernel build has %d crossings, coord %v", refB.Crossings, refB.Coord)
	}
	if len(refDates) != 40 {
		t.Fatalf("got %d dates", len(refDates))
	}
	for _, part := range []Partitioner{Single, RoundRobin, MinCut} {
		for shards := 1; shards <= 3; shards++ {
			dates, sum, b := run(shards, part)
			if sum != refSum {
				t.Errorf("%s/%d shards: checksum %x, want %x", part.Name(), shards, sum, refSum)
			}
			if len(dates) != len(refDates) {
				t.Fatalf("%s/%d shards: %d dates, want %d", part.Name(), shards, len(dates), len(refDates))
			}
			for i := range dates {
				if dates[i] != refDates[i] {
					t.Fatalf("%s/%d shards: date[%d] = %v, want %v", part.Name(), shards, i, dates[i], refDates[i])
				}
			}
			if part == Single && b.Crossings != 0 {
				t.Errorf("single partitioner produced %d crossings", b.Crossings)
			}
			if shards > 1 && part == RoundRobin && b.Crossings == 0 {
				t.Errorf("roundrobin over %d shards cut no edges", shards)
			}
		}
	}
}

// TestMinCutFewerCrossings: on the 3-stage chain over 2 shards, mincut
// must cut exactly one channel where roundrobin cuts two.
func TestMinCutFewerCrossings(t *testing.T) {
	build := func(part Partitioner) *Build {
		g, _, _ := smallGraph(1, 1)
		b, err := g.Build(Options{Shards: 2, Partitioner: part})
		if err != nil {
			t.Fatal(err)
		}
		b.Run(sim.RunForever)
		b.Shutdown()
		return b
	}
	if rr := build(RoundRobin); rr.Crossings != 2 {
		t.Errorf("roundrobin crossings = %d, want 2", rr.Crossings)
	}
	if mc := build(MinCut); mc.Crossings != 1 {
		t.Errorf("mincut crossings = %d, want 1", mc.Crossings)
	}
}

// TestColocationGroups: grouped modules land on one kernel and their
// channels never become bridges.
func TestColocationGroups(t *testing.T) {
	g, _, _ := smallGraph(4, 2)
	g.modules[0].InGroup("front")
	g.modules[1].InGroup("front")
	b, err := g.Build(Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Assignment[0] != b.Assignment[1] {
		t.Fatalf("grouped modules on shards %d and %d", b.Assignment[0], b.Assignment[1])
	}
	if b.Crossings != 1 || b.Bridges[0] != "f2" {
		t.Fatalf("crossings %d bridges %v, want only f2", b.Crossings, b.Bridges)
	}
	b.Run(sim.RunForever)
	b.Shutdown()
}

// TestBuildErrors covers the declarative validation surface.
func TestBuildErrors(t *testing.T) {
	wantErr := func(name string, g *Graph, opt Options, frag string) {
		t.Helper()
		_, err := g.Build(opt)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("%s: err = %v, want %q", name, err, frag)
		}
	}
	wantErr("empty", New("g"), Options{}, "no modules")

	g := New("g")
	g.Thread("a", func(p *sim.Process) {})
	g.Thread("b", func(p *sim.Process) {})
	wantErr("too many shards", g, Options{Shards: 3}, "2 partitionable units")

	g2 := New("g")
	m := g2.Thread("a", func(p *sim.Process) {})
	c := AddChan[int](g2, "c", 1)
	c.Output(m)
	g2.Thread("b", func(p *sim.Process) {})
	wantErr("unbound reader", g2, Options{Shards: 2}, "unbound reader")

	g3 := New("g")
	m3 := g3.Thread("a", func(p *sim.Process) {})
	m4 := g3.Thread("b", func(p *sim.Process) {})
	c3 := AddChan[int](g3, "c", 1)
	c3.Output(m3)
	c3.Input(m4)
	wantErr("non-smart sharded", g3, Options{Shards: 2, Impl: Plain}, "cannot be sharded")

	g4 := New("g")
	g4.Thread("a", nil)
	wantErr("bodyless", g4, Options{}, "neither a thread body")
}

// TestDoubleBindPanics pins the one-writer-one-reader rule.
func TestDoubleBindPanics(t *testing.T) {
	g := New("g")
	a := g.Thread("a", func(p *sim.Process) {})
	b := g.Thread("b", func(p *sim.Process) {})
	c := AddChan[int](g, "c", 1)
	c.Output(a)
	defer func() {
		if recover() == nil {
			t.Fatal("second Output did not panic")
		}
	}()
	c.Output(b)
}

// TestPartitionerRegistry pins names and the default.
func TestPartitionerRegistry(t *testing.T) {
	names := PartitionerNames()
	want := []string{"mincut", "roundrobin", "single"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
	if p, err := PartitionerByName(""); err != nil || p.Name() != "roundrobin" {
		t.Fatalf("default = %v, %v", p, err)
	}
	if _, err := PartitionerByName("bogus"); err == nil {
		t.Fatal("bogus partitioner accepted")
	}
}

// TestMinCutProperties: assignments are valid, leave no shard empty, and
// respect determinism.
func TestMinCutProperties(t *testing.T) {
	pg := PartGraph{
		Units: []Unit{{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}, {"e", 1}, {"f", 1}},
		Edges: []Edge{{0, 1, 10}, {1, 2, 10}, {3, 4, 10}, {4, 5, 10}, {2, 3, 1}},
	}
	for shards := 1; shards <= 6; shards++ {
		a1 := MinCut.Partition(pg, shards)
		a2 := MinCut.Partition(pg, shards)
		used := map[int]bool{}
		for i, s := range a1 {
			if s < 0 || s >= shards {
				t.Fatalf("shards=%d: unit %d on shard %d", shards, i, s)
			}
			if a2[i] != s {
				t.Fatalf("shards=%d: nondeterministic assignment", shards)
			}
			used[s] = true
		}
		if len(used) != shards {
			t.Fatalf("shards=%d: only %d shards used: %v", shards, len(used), a1)
		}
	}
	// Two heavy cliques over 2 shards: the weight-1 edge is the cut.
	a := MinCut.Partition(pg, 2)
	if a[0] != a[1] || a[1] != a[2] || a[3] != a[4] || a[4] != a[5] || a[2] == a[3] {
		t.Fatalf("mincut split cliques: %v", a)
	}
}

// TestZeroWeightModulesSchedulable: WithWeight(0) modules still count as
// one unit of schedulable work each, so a build of only zero-weight
// modules still fills every shard.
func TestZeroWeightModulesSchedulable(t *testing.T) {
	g, _, _ := smallGraph(4, 2)
	for _, m := range g.modules {
		m.WithWeight(0)
	}
	b, err := g.Build(Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, s := range b.Assignment {
		used[s] = true
	}
	if len(used) != 3 {
		t.Fatalf("zero-weight modules landed on %d of 3 shards: %v", len(used), b.Assignment)
	}
	b.Run(sim.RunForever)
	b.Shutdown()

	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	New("neg").Thread("m", nil).WithWeight(-1)
}
