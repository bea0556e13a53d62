package netlist

import (
	"fmt"
	"sort"
)

// Unit is one partitionable element of the unit graph: a module, or a
// colocation group of modules, with its summed compute weight.
type Unit struct {
	Name   string
	Weight float64
}

// Edge is a channel between two units, carrying its traffic weight.
// Parallel channels stay separate edges; partitioners merge as needed.
type Edge struct {
	A, B   int
	Weight float64
}

// PartGraph is the view of a graph a Partitioner sees: the colocation
// units and the weighted cross-unit channels.
type PartGraph struct {
	Units []Unit
	Edges []Edge
}

// Partitioner assigns units to shards. Implementations must be
// deterministic — equal inputs give equal assignments — because the
// assignment participates in reproducible campaign outcomes. Partitioning
// never changes dated results (bridges are date-exact); it only changes
// how much traffic crosses shard boundaries.
type Partitioner interface {
	// Name is the registry key ("single", "roundrobin", "mincut").
	Name() string
	// Partition returns one shard index in [0, shards) per unit. Build
	// guarantees 1 <= shards <= len(pg.Units).
	Partition(pg PartGraph, shards int) []int
}

// Single places every unit on shard 0: the degenerate partitioning whose
// build is exactly the classic single-kernel model (zero crossings), the
// baseline the equivalence tests pin everything else against.
var Single Partitioner = singlePart{}

type singlePart struct{}

func (singlePart) Name() string { return "single" }

func (singlePart) Partition(pg PartGraph, shards int) []int {
	return make([]int, len(pg.Units))
}

// RoundRobin deals units to shards in declaration order (unit i on shard
// i mod N) — the modulo mapping the hand-wired sharded builds used, kept
// as the default for reproducibility.
var RoundRobin Partitioner = roundRobinPart{}

type roundRobinPart struct{}

func (roundRobinPart) Name() string { return "roundrobin" }

func (roundRobinPart) Partition(pg PartGraph, shards int) []int {
	out := make([]int, len(pg.Units))
	for i := range out {
		out[i] = i % shards
	}
	return out
}

// MinCut is a traffic-weighted greedy min-cut: units are placed in
// decreasing order of adjacent traffic, each onto the shard where the most
// already-placed traffic keeps it company — subject to a soft compute
// balance bound and to leaving no shard empty. It minimizes bridge
// crossings, the quantity that throttles the conservative coordinator.
var MinCut Partitioner = minCutPart{}

type minCutPart struct{}

func (minCutPart) Name() string { return "mincut" }

func (minCutPart) Partition(pg PartGraph, shards int) []int {
	n := len(pg.Units)
	// Merged adjacency and per-unit total traffic.
	adj := make([]map[int]float64, n)
	for i := range adj {
		adj[i] = map[int]float64{}
	}
	degree := make([]float64, n)
	for _, e := range pg.Edges {
		if e.A == e.B {
			continue
		}
		adj[e.A][e.B] += e.Weight
		adj[e.B][e.A] += e.Weight
		degree[e.A] += e.Weight
		degree[e.B] += e.Weight
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if degree[order[a]] != degree[order[b]] {
			return degree[order[a]] > degree[order[b]]
		}
		return order[a] < order[b]
	})

	total := 0.0
	for _, u := range pg.Units {
		total += u.Weight
	}
	// Soft balance cap: a shard may exceed its fair share by 25% before
	// the greedy stops preferring it (hard overflows are still allowed
	// when every shard is over — cut quality beats balance).
	softCap := total / float64(shards) * 1.25

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	load := make([]float64, shards)
	count := make([]int, shards)
	empty := shards
	for placed, ui := range order {
		remaining := n - placed // units not yet placed, including ui
		// Leaving-no-shard-empty feasibility: placing ui on a non-empty
		// shard must leave enough units for the still-empty shards.
		mustFillEmpty := remaining-1 < empty
		gain := make([]float64, shards)
		for nb, w := range adj[ui] {
			if s := assign[nb]; s >= 0 {
				gain[s] += w
			}
		}
		best := -1
		bestKey := [3]float64{}
		for s := 0; s < shards; s++ {
			if mustFillEmpty && count[s] > 0 {
				continue
			}
			// Rank: most co-located traffic, then within the soft cap,
			// then least loaded, then lowest index (determinism).
			key := [3]float64{gain[s], 0, -load[s]}
			if load[s]+pg.Units[ui].Weight <= softCap {
				key[1] = 1
			}
			if best < 0 || keyLess(bestKey, key) {
				best, bestKey = s, key
			}
		}
		if count[best] == 0 {
			empty--
		}
		assign[ui] = best
		load[best] += pg.Units[ui].Weight
		count[best]++
	}
	return assign
}

// keyLess reports whether candidate key b beats a (lexicographic,
// larger-is-better).
func keyLess(a, b [3]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// partitioners is the name registry behind the -partitioner flags and the
// scenario "partitioner" parameter.
var partitioners = map[string]Partitioner{
	Single.Name():     Single,
	RoundRobin.Name(): RoundRobin,
	MinCut.Name():     MinCut,
}

// PartitionerNames returns the registered partitioner names, sorted.
func PartitionerNames() []string {
	names := make([]string, 0, len(partitioners))
	for n := range partitioners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PartitionerByName resolves a partitioner; the empty name means the
// default (RoundRobin, the hand-wired builds' modulo mapping).
func PartitionerByName(name string) (Partitioner, error) {
	if name == "" {
		return RoundRobin, nil
	}
	p, ok := partitioners[name]
	if !ok {
		return nil, fmt.Errorf("netlist: unknown partitioner %q (have %v)", name, PartitionerNames())
	}
	return p, nil
}
