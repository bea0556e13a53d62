package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/pipeline"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Seeded input generation. Every input of a run derives from --seed and
// nothing else: the same seed gives byte-identical inputs (pinned by
// TestSameSeedSameInputs), so two commits measured on one seed simulate
// exactly the same thing.

// role says which host-time metric a run's time counts towards.
type role int

const (
	// roleRef is a sync-on-every-access reference build (TDless,
	// TDless-b, SoC SyncFIFO, decoupled=false campaign points).
	roleRef role = iota
	// roleSmart is a single-kernel Smart-FIFO build.
	roleSmart
	// roleBurst is a single-kernel Smart-FIFO burst build.
	roleBurst
	// roleClustered is a clustered model on one kernel: the oracle of a
	// sharded run.
	roleClustered
	// roleSharded is a model partitioned over several kernels.
	roleSharded
)

var roleNames = [...]string{"ref", "smart", "burst", "clustered", "sharded"}

func (r role) String() string { return roleNames[r] }

// hostMetric is the host-time metric a role's runs add up to.
func (r role) hostMetric() string { return r.String() + "_host_s" }

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Fig. 5 sizing: each row moves fig5Blocks × fig5Words words through the
// three-module pipeline. Depth 1 is switch-bound, depth 256 FIFO-op-bound.
var fig5Depths = []int{1, 8, 64, 256}

const (
	fig5Blocks = 20
	fig5Words  = 1000
	fig5Burst  = 64
)

// fig5Row is one row of the Fig. 5 table.
type fig5Row struct {
	label string
	role  role
	// ref names the reference row whose block dates this row must
	// reproduce ("" for a reference row).
	ref string
	cfg pipeline.Config
}

// fig5Rows returns the table: TDless, TDfull, TDless-b and TDburst at
// every depth. blocks scales the rows (the set-up warm-up uses fewer).
func fig5Rows(seed int64, blocks int) []fig5Row {
	payload := newRand(seed, 1).Int64N(1<<62) + 1
	var rows []fig5Row
	for _, d := range fig5Depths {
		base := pipeline.Config{Depth: d, Blocks: blocks, WordsPerBlock: fig5Words, Seed: payload}
		tdless := fmt.Sprintf("TDless/d%d", d)
		chunked := fmt.Sprintf("TDless-b/d%d", d)
		add := func(label string, r role, ref string, mode pipeline.Mode, burst int) {
			c := base
			c.Mode, c.Burst = mode, burst
			rows = append(rows, fig5Row{label: label, role: r, ref: ref, cfg: c})
		}
		add(tdless, roleRef, "", pipeline.TDless, 0)
		add(fmt.Sprintf("TDfull/d%d", d), roleSmart, tdless, pipeline.TDfull, 0)
		add(chunked, roleRef, "", pipeline.TDless, fig5Burst)
		add(fmt.Sprintf("TDburst/d%d", d), roleBurst, chunked, pipeline.TDfull, fig5Burst)
	}
	return rows
}

// socRun is one run of the SoC workload.
type socRun struct {
	label string
	role  role
	// ref names the run whose job dates and checksums this run must
	// reproduce ("" for a reference run).
	ref string
	// known, when set, names the known defect that makes this run's
	// comparison with ref fail.
	known string
	cfg   soc.Config
	// shards > 0 runs the clustered model (soc.RunClustered) on that
	// many kernels; 0 runs the single-kernel case study (soc.Run).
	shards int
}

// classicDefect is the documented mismatch of the classic SoC shape.
const classicDefect = "soc classic shape (NoC off, DMA off, 4 pipelines x 2 jobs x 512 words): SmartFIFO job dates differ from SyncFIFO"

// socRuns returns the SoC workload: the §IV-C case study as SyncFIFO vs
// SmartFIFO at the paper's shape (NoC, DMA and bus, 8 pipelines) and at
// the classic shape (NoC and DMA off, 4 pipelines x 2 jobs x 512 words),
// plus the clustered model on 1 and on nproc kernels. jobScale divides
// the job counts of the paper and clustered shapes (the set-up warm-up
// uses 2).
func socRuns(seed int64, nproc, jobScale int) []socRun {
	payload := newRand(seed, 2).Int64N(1<<62) + 1
	paper := soc.Config{
		Pipelines: 8, Jobs: 2, WordsPerJob: 2048, FIFODepth: 16,
		UseNoC: true, NoCPacketLen: 16, WithDMA: true,
		Quantum: 500 * sim.NS, Seed: payload,
	}
	classic := soc.Config{
		Pipelines: 4, Jobs: 2, WordsPerJob: 512, FIFODepth: 16,
		Quantum: 500 * sim.NS, Seed: payload,
	}
	clustered := soc.Config{
		Pipelines: 8, Jobs: 4 / jobScale, WordsPerJob: 4096, FIFODepth: 16,
		Quantum: 500 * sim.NS, Seed: payload,
	}
	paper.Jobs /= jobScale
	shards := min(max(nproc, 2), clustered.Pipelines)
	with := func(c soc.Config, m soc.FIFOMode) soc.Config {
		c.Mode = m
		return c
	}
	return []socRun{
		{label: "sync/paper", role: roleRef, cfg: with(paper, soc.SyncFIFOs)},
		{label: "smart/paper", role: roleSmart, ref: "sync/paper", cfg: with(paper, soc.SmartFIFOs)},
		{label: "sync/classic", role: roleRef, cfg: with(classic, soc.SyncFIFOs)},
		{label: "smart/classic", role: roleSmart, ref: "sync/classic", known: classicDefect, cfg: with(classic, soc.SmartFIFOs)},
		{label: "clustered-1", role: roleClustered, cfg: clustered, shards: 1},
		{label: fmt.Sprintf("clustered-%d", shards), role: roleSharded, ref: "clustered-1", cfg: clustered, shards: shards},
	}
}

// campaignPoint is one generated campaign point.
type campaignPoint struct {
	model  string
	params scenario.Params
	role   role
	// words is the number of words the point moves end to end.
	words int
}

// campaignGroup is a set of points that must all produce the same dates
// digest and checksums: one workload shape run as reference, decoupled,
// burst or sharded build.
type campaignGroup struct {
	name string
	// kind is the groupKinds entry the group was built from.
	kind   string
	points []campaignPoint
	// known, when set, names the known defect that makes the group's
	// points disagree for some seeds.
	known string
}

// nocDefect is the documented mismatch of the NoC model when two streams
// share mesh links.
const nocDefect = "noc model, 2 streams sharing mesh links: decoupled delivery dates differ from the decoupled=false reference (the model's own spot check reports it too)"

// groupKinds are the shapes a campaign draws its groups from.
var groupKinds = []string{"pipeline", "kpn", "kpn-burst", "noc", "chain", "ring", "tree", "mesh", "soc-clustered"}

// newGroup builds one group of the given kind; seed feeds the point's
// payload and rate generators, so distinct seeds give distinct hashes.
func newGroup(kind string, seed int64) campaignGroup {
	g := campaignGroup{name: fmt.Sprintf("%s/%d", kind, seed), kind: kind}
	add := func(model string, r role, words int, p scenario.Params) {
		p["seed"] = seed
		g.points = append(g.points, campaignPoint{model: model, params: p, role: r, words: words})
	}
	switch kind {
	case "pipeline":
		const blocks, wpb = 8, 100
		add("pipeline", roleRef, blocks*wpb, scenario.Params{"mode": "TDless", "depth": 4, "blocks": blocks, "words_per_block": wpb})
		add("pipeline", roleSmart, blocks*wpb, scenario.Params{"mode": "TDfull", "depth": 4, "blocks": blocks, "words_per_block": wpb})
		add("pipeline", roleSharded, blocks*wpb, scenario.Params{"mode": "TDfull", "depth": 4, "blocks": blocks, "words_per_block": wpb, "shards": 2})
	case "kpn":
		const tokens = 300
		add("kpn", roleRef, tokens, scenario.Params{"stages": 4, "depth": 4, "tokens": tokens, "decoupled": false})
		add("kpn", roleSmart, tokens, scenario.Params{"stages": 4, "depth": 4, "tokens": tokens, "decoupled": true})
		add("kpn", roleSharded, tokens, scenario.Params{"stages": 4, "depth": 4, "tokens": tokens, "decoupled": true, "shards": 2})
	case "kpn-burst":
		const tokens = 600
		add("kpn", roleRef, tokens, scenario.Params{"stages": 4, "depth": 16, "tokens": tokens, "burst": 8, "decoupled": false})
		add("kpn", roleBurst, tokens, scenario.Params{"stages": 4, "depth": 16, "tokens": tokens, "burst": 8, "decoupled": true})
	case "noc":
		const streams, words = 2, 64
		g.known = nocDefect
		add("noc", roleRef, streams*words, scenario.Params{"width": 2, "height": 2, "streams": streams, "words": words, "decoupled": false})
		add("noc", roleSmart, streams*words, scenario.Params{"width": 2, "height": 2, "streams": streams, "words": words, "decoupled": true})
	case "chain", "ring", "tree", "mesh":
		const words = 64
		p := scenario.Params{"kind": kind, "depth": 4, "words": words}
		sources := 1
		switch kind {
		case "chain", "ring":
			p["stages"] = 6
		case "tree":
			p["arity"], p["levels"] = 2, 2
			sources = 4
		case "mesh":
			p["width"], p["height"] = 3, 2
			sources = 3
		}
		with := func(kv ...any) scenario.Params {
			q := p.Clone()
			for i := 0; i < len(kv); i += 2 {
				q[kv[i].(string)] = kv[i+1]
			}
			return q
		}
		add("netlist", roleRef, sources*words, with("decoupled", false))
		add("netlist", roleSmart, sources*words, with("decoupled", true))
		add("netlist", roleSharded, sources*words, with("decoupled", true, "shards", 2))
	case "soc-clustered":
		const pipes, jobs, wpj = 2, 1, 256
		p := scenario.Params{"pipelines": pipes, "jobs": jobs, "words_per_job": wpj}
		add("soc-clustered", roleClustered, pipes*jobs*wpj, p.Clone())
		q := p.Clone()
		q["shards"] = 2
		add("soc-clustered", roleSharded, pipes*jobs*wpj, q)
	default:
		panic("perfbench: unknown group kind " + kind)
	}
	return g
}

// campaignGen generates the campaign workload's closed loop of campaigns.
type campaignGen struct {
	rng     *rand.Rand
	history []campaignGroup
}

func newCampaignGen(seed int64) *campaignGen {
	return &campaignGen{rng: newRand(seed, 3)}
}

// newEpoch forgets the groups of earlier epochs: an epoch starts with an
// empty cache, so only its own groups can be repeated as cache hits.
func (g *campaignGen) newEpoch() { g.history = nil }

// next returns the next campaign's groups: one new group of every kind,
// on seeds drawn from the run's seed, plus, after the first campaign of an
// epoch, one group repeated from an earlier campaign, whose points hit the
// engine's shared cache.
func (g *campaignGen) next() []campaignGroup {
	var groups []campaignGroup
	for _, k := range groupKinds {
		groups = append(groups, newGroup(k, g.rng.Int64N(1<<40)+1))
	}
	g.history = append(g.history, groups...)
	if n := len(g.history) - len(groups); n > 0 {
		groups = append(groups, g.history[g.rng.IntN(n)])
	}
	return groups
}

// anchorGroups is the fixed campaign the set-up runs: three groups of
// every kind on fixed seeds, so its dates digests can be recorded once.
func anchorGroups() []campaignGroup {
	var groups []campaignGroup
	for seed := int64(1); seed <= 3; seed++ {
		for _, k := range groupKinds {
			groups = append(groups, newGroup(k, seed))
		}
	}
	return groups
}

// campaignSet flattens groups into a campaign submission, one spec per
// point, so that result i is point i.
func campaignSet(name string, groups []campaignGroup) (scenario.Set, []campaignPoint, []int) {
	set := scenario.Set{Name: name}
	var points []campaignPoint
	var groupOf []int
	for gi, g := range groups {
		for _, p := range g.points {
			set.Specs = append(set.Specs, scenario.Spec{Model: p.model, Params: p.params})
			points = append(points, p)
			groupOf = append(groupOf, gi)
		}
	}
	return set, points, groupOf
}
