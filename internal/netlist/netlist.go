// Package netlist is the declarative component-graph layer over the
// simulation kernel: models declare Modules (a process body or a
// structural elaboration hook, plus typed in/out Ports) and Channels
// (depth, burst hint, optional traffic weight), and Build elaborates the
// graph onto N kernels.
//
// The paper's Smart-FIFO temporal decoupling is topology-agnostic — any
// process network wired with dated FIFOs gets accurate loosely-timed
// simulation — so the netlist turns topology itself into a first-class,
// sweepable axis:
//
//   - within a kernel a channel elaborates as a plain core.SmartFIFO (or a
//     regular/sync FIFO for reference builds);
//   - at every cut edge — a channel whose writer and reader modules land
//     on different shards — Build auto-inserts a core.ShardedFIFO bridge
//     and registers it with the conservative coordinator (internal/par).
//     Because the bridge reproduces single-kernel Smart-FIFO dates
//     exactly, the partitioning never changes the dated behaviour: every
//     partitioner at every shard count yields the same dated logs as the
//     single-kernel build (pinned by the package's trace-equivalence
//     tests);
//   - pluggable Partitioners (single, roundrobin, mincut) assign
//     colocation units to shards; a traffic-weighted greedy min-cut
//     minimizes bridge crossings.
//
// Modules that must share a kernel (a bus and the cores behind it, a NoC
// mesh and its network interfaces) declare a common colocation group; the
// partitioner places each group as one unit.
package netlist

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/par"
	"repro/internal/sim"
)

// Graph is a netlist under construction: a set of modules and the typed
// channels connecting their ports. Declaration order is elaboration order
// (channels first, then modules), so thread processes start in module
// declaration order — exactly like a hand-wired build that creates its
// threads in source order.
type Graph struct {
	name    string
	modules []*Module
	chans   []chanDecl

	// Duplicate-name detection in O(1) per declaration: generated
	// topologies declare thousands of modules and channels.
	moduleNames map[string]bool
	chanNames   map[string]bool
}

// New returns an empty graph. The name seeds the kernel names.
func New(name string) *Graph {
	return &Graph{
		name:        name,
		moduleNames: map[string]bool{},
		chanNames:   map[string]bool{},
	}
}

// Name returns the graph name.
func (g *Graph) Name() string { return g.name }

// Module is one component of the graph: either a thread process body or a
// structural elaboration hook, plus the ports bound to it by the channels.
type Module struct {
	g      *Graph
	idx    int
	name   string
	group  string
	weight float64

	body func(p *sim.Process) // thread module
	elab func(k *sim.Kernel)  // structural module
}

// Thread declares a module whose behaviour is a single thread process; the
// body runs on whatever kernel the partitioner assigns the module to.
func (g *Graph) Thread(name string, body func(p *sim.Process)) *Module {
	return g.add(&Module{name: name, body: body})
}

// Structural declares a module elaborated by a hook instead of a single
// process body: the hook runs once during Build, on the module's assigned
// kernel, and may instantiate any sub-structure (a bus, a NoC mesh plus
// its network interfaces, an accelerator). Ports bound to the module are
// resolved before the hook runs.
func (g *Graph) Structural(name string, elab func(k *sim.Kernel)) *Module {
	return g.add(&Module{name: name, elab: elab})
}

func (g *Graph) add(m *Module) *Module {
	if g.moduleNames[m.name] {
		panic(fmt.Sprintf("netlist: %s: duplicate module %q", g.name, m.name))
	}
	g.moduleNames[m.name] = true
	m.g = g
	m.idx = len(g.modules)
	m.weight = 1
	g.modules = append(g.modules, m)
	return m
}

// Name returns the module name.
func (m *Module) Name() string { return m.name }

// Body sets (or replaces) a thread module's process body. Declaring a
// module with a nil body and setting it afterwards lets the body close
// over ports bound to the module after its declaration.
func (m *Module) Body(body func(p *sim.Process)) *Module {
	if m.elab != nil {
		panic(fmt.Sprintf("netlist: %s: structural module %q cannot take a thread body", m.g.name, m.name))
	}
	m.body = body
	return m
}

// Elab sets (or replaces) a structural module's elaboration hook, the
// deferred-declaration twin of Body.
func (m *Module) Elab(elab func(k *sim.Kernel)) *Module {
	if m.body != nil {
		panic(fmt.Sprintf("netlist: %s: thread module %q cannot take an elaboration hook", m.g.name, m.name))
	}
	m.elab = elab
	return m
}

// InGroup assigns the module to a colocation group: all modules of a group
// elaborate onto the same kernel and are placed by the partitioner as one
// unit. Modules with no group are units of their own.
func (m *Module) InGroup(group string) *Module {
	m.group = group
	return m
}

// WithWeight sets the module's compute-weight hint (default 1) used by
// balancing partitioners. Zero is allowed and means "no measurable
// compute": the balancer still counts the module as one unit of
// schedulable work (see Graph.units), it just adds no hint weight of
// its own on top of that floor.
func (m *Module) WithWeight(w float64) *Module {
	if w < 0 {
		panic(fmt.Sprintf("netlist: %s: negative module weight %v", m.name, w))
	}
	m.weight = w
	return m
}

// chanMeta is the type-erased channel metadata the graph core works with.
type chanMeta struct {
	idx    int
	name   string
	depth  int
	weight float64 // explicit traffic weight (0 = derive from burst hint)
	burst  int     // burst hint (words per bulk transfer)
	writer int     // writing module index, -1 while unbound
	reader int     // reading module index, -1 while unbound
}

// trafficWeight is the edge weight the partitioners see: the explicit
// weight when set, otherwise the burst hint (a bursty channel carries
// proportionally more words per annotation), otherwise 1.
func (cm *chanMeta) trafficWeight() float64 {
	if cm.weight > 0 {
		return cm.weight
	}
	if cm.burst > 1 {
		return float64(cm.burst)
	}
	return 1
}

// chanDecl is the graph-facing interface of a typed channel.
type chanDecl interface {
	meta() *chanMeta
	// elabLocal creates the in-kernel implementation on k.
	elabLocal(k *sim.Kernel, impl ChanImpl)
	// elabBridge creates a cross-shard bridge from wk to rk.
	elabBridge(wk, rk *sim.Kernel) par.Bridge
}

// Chan is a typed channel declaration: one writer port, one reader port, a
// depth in cells, and optional partitioning hints. The concrete
// implementation (Smart FIFO, regular FIFO, sync FIFO or sharded bridge)
// is chosen at Build.
type Chan[T any] struct {
	g *Graph
	chanMeta

	// Resolved endpoints, valid after Build.
	w fifo.WriteEnd[T]
	r fifo.ReadEnd[T]
}

// AddChan declares a channel of the given depth.
func AddChan[T any](g *Graph, name string, depth int) *Chan[T] {
	if depth <= 0 {
		panic(fmt.Sprintf("netlist: %s: channel %q: non-positive depth %d", g.name, name, depth))
	}
	if g.chanNames[name] {
		panic(fmt.Sprintf("netlist: %s: duplicate channel %q", g.name, name))
	}
	g.chanNames[name] = true
	c := &Chan[T]{g: g, chanMeta: chanMeta{
		idx: len(g.chans), name: name, depth: depth, writer: -1, reader: -1,
	}}
	g.chans = append(g.chans, c)
	return c
}

// WithWeight sets the channel's traffic weight: the cost the min-cut
// partitioner pays for turning this channel into a cross-shard bridge.
func (c *Chan[T]) WithWeight(w float64) *Chan[T] {
	if w <= 0 {
		panic(fmt.Sprintf("netlist: channel %q: non-positive weight %v", c.name, w))
	}
	c.weight = w
	return c
}

// WithBurst records the expected words-per-bulk-transfer hint. It feeds
// the default traffic weight (bursty channels are more expensive to cut)
// and documents the access pattern.
func (c *Chan[T]) WithBurst(words int) *Chan[T] {
	c.burst = words
	return c
}

// meta implements chanDecl.
func (c *Chan[T]) meta() *chanMeta { return &c.chanMeta }

// OutPort is a module's typed handle on the writing side of a channel.
type OutPort[T any] struct{ c *Chan[T] }

// InPort is a module's typed handle on the reading side of a channel.
type InPort[T any] struct{ c *Chan[T] }

// Output binds m as the channel's (sole) writing module and returns the
// out-port the module's body resolves with End.
func (c *Chan[T]) Output(m *Module) OutPort[T] {
	if m.g != c.g {
		panic(fmt.Sprintf("netlist: channel %q and module %q belong to different graphs", c.name, m.name))
	}
	if c.writer >= 0 {
		panic(fmt.Sprintf("netlist: channel %q already has writer %q", c.name, c.g.modules[c.writer].name))
	}
	c.writer = m.idx
	return OutPort[T]{c}
}

// Input binds m as the channel's (sole) reading module and returns the
// in-port the module's body resolves with End.
func (c *Chan[T]) Input(m *Module) InPort[T] {
	if m.g != c.g {
		panic(fmt.Sprintf("netlist: channel %q and module %q belong to different graphs", c.name, m.name))
	}
	if c.reader >= 0 {
		panic(fmt.Sprintf("netlist: channel %q already has reader %q", c.name, c.g.modules[c.reader].name))
	}
	c.reader = m.idx
	return InPort[T]{c}
}

// End resolves the port to the elaborated write endpoint: the channel
// itself when writer and reader share a kernel, the writer-side endpoint
// of the auto-inserted bridge otherwise. Valid only after Build.
func (p OutPort[T]) End() fifo.WriteEnd[T] {
	if p.c.w == nil {
		panic(fmt.Sprintf("netlist: out-port of channel %q used before Build", p.c.name))
	}
	return p.c.w
}

// End resolves the port to the elaborated read endpoint. Valid only after
// Build.
func (p InPort[T]) End() fifo.ReadEnd[T] {
	if p.c.r == nil {
		panic(fmt.Sprintf("netlist: in-port of channel %q used before Build", p.c.name))
	}
	return p.c.r
}

// Ends returns both resolved endpoints without going through ports — the
// escape hatch for layers (like kpn) whose channels may stay unbound in
// single-kernel builds. Valid only after Build.
func (c *Chan[T]) Ends() (fifo.WriteEnd[T], fifo.ReadEnd[T]) {
	if c.w == nil {
		panic(fmt.Sprintf("netlist: channel %q used before Build", c.name))
	}
	return c.w, c.r
}

// ChanImpl selects the in-kernel channel implementation of a build.
type ChanImpl int

const (
	// Smart elaborates channels as core.SmartFIFO — the paper's
	// contribution, and the only implementation that can be sharded (the
	// bridges carry its dates).
	Smart ChanImpl = iota
	// Plain elaborates channels as regular fifo.FIFO (the TDless /
	// untimed reference builds).
	Plain
	// Sync elaborates channels as fifo.SyncFIFO (the sync-on-every-access
	// §IV-C baseline).
	Sync
)

// String names the implementation.
func (i ChanImpl) String() string {
	switch i {
	case Smart:
		return "smart"
	case Plain:
		return "plain"
	case Sync:
		return "sync"
	}
	return fmt.Sprintf("ChanImpl(%d)", int(i))
}

func (c *Chan[T]) elabLocal(k *sim.Kernel, impl ChanImpl) {
	var ch fifo.Channel[T]
	switch impl {
	case Smart:
		ch = core.NewSmart[T](k, c.name, c.depth)
	case Plain:
		ch = fifo.New[T](k, c.name, c.depth)
	case Sync:
		ch = fifo.NewSync[T](k, c.name, c.depth)
	default:
		panic(fmt.Sprintf("netlist: channel %q: unknown implementation %v", c.name, impl))
	}
	c.w, c.r = ch, ch
}

func (c *Chan[T]) elabBridge(wk, rk *sim.Kernel) par.Bridge {
	b := core.NewSharded[T](wk, rk, c.name, c.depth)
	c.w, c.r = b.Writer(), b.Reader()
	return b
}

// Options parameterizes Build.
type Options struct {
	// Shards is the number of kernels to elaborate onto (0 and 1 both
	// mean a single kernel, no coordinator).
	Shards int
	// Partitioner assigns colocation units to shards (nil: RoundRobin).
	Partitioner Partitioner
	// Impl is the in-kernel channel implementation (default Smart). Only
	// Smart builds can be sharded.
	Impl ChanImpl
}

// Build is an elaborated graph: the kernels, the coordinator when sharded,
// and the partitioning outcome.
type Build struct {
	// Kernels are the shards, in index order. Single-kernel builds have
	// exactly one and no coordinator.
	Kernels []*sim.Kernel
	// Coord is the conservative coordinator driving the shards;
	// nil for single-kernel builds.
	Coord *par.Coordinator
	// Assignment maps module index to shard index.
	Assignment []int
	// Crossings is the number of channels elaborated as cross-shard
	// bridges; CutWeight sums their traffic weights.
	Crossings int
	CutWeight float64
	// Bridges names the channels that became bridges, in declaration
	// order.
	Bridges []string

	g *Graph
}

// Build partitions the graph and elaborates it: kernels are created,
// every channel becomes a Smart FIFO (or the requested reference
// implementation) when its two ports share a shard and a ShardedFIFO
// bridge when they do not, and every module elaborates on its assigned
// kernel — structural hooks run immediately, thread bodies register as
// processes. A graph elaborates at most once.
func (g *Graph) Build(opt Options) (*Build, error) {
	shards := opt.Shards
	if shards < 1 {
		shards = 1
	}
	if len(g.modules) == 0 {
		return nil, fmt.Errorf("netlist: %s: graph has no modules", g.name)
	}
	for _, m := range g.modules {
		if m.body == nil && m.elab == nil {
			return nil, fmt.Errorf("netlist: %s: module %q has neither a thread body nor an elaboration hook", g.name, m.name)
		}
	}
	for _, d := range g.chans {
		cm := d.meta()
		if shards > 1 && (cm.writer < 0 || cm.reader < 0) {
			return nil, fmt.Errorf("netlist: %s: channel %q: unbound %s (sharded builds need both ports bound to locate cut edges)",
				g.name, cm.name, boundDesc(cm))
		}
	}
	if shards > 1 && opt.Impl != Smart {
		return nil, fmt.Errorf("netlist: %s: %v channels cannot be sharded (only Smart FIFOs carry the bridge dates)", g.name, opt.Impl)
	}

	units, unitOf := g.units()
	if shards > len(units) {
		return nil, fmt.Errorf("netlist: %s: %d shards but only %d partitionable units (%d modules; group colocated modules or lower the shard count)",
			g.name, shards, len(units), len(g.modules))
	}
	pg := g.partGraph(units, unitOf)
	p := opt.Partitioner
	if p == nil {
		p = RoundRobin
	}
	ua := p.Partition(pg, shards)
	if len(ua) != len(units) {
		return nil, fmt.Errorf("netlist: %s: partitioner %q returned %d assignments for %d units", g.name, p.Name(), len(ua), len(units))
	}
	for i, s := range ua {
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("netlist: %s: partitioner %q assigned unit %q to shard %d of %d", g.name, p.Name(), units[i].Name, s, shards)
		}
	}

	b := &Build{g: g, Assignment: make([]int, len(g.modules))}
	for mi := range g.modules {
		b.Assignment[mi] = ua[unitOf[mi]]
	}
	if shards == 1 {
		b.Kernels = []*sim.Kernel{sim.NewKernel(g.name)}
	} else {
		b.Coord = par.NewCoordinator()
		b.Kernels = make([]*sim.Kernel, shards)
		for i := range b.Kernels {
			b.Kernels[i] = sim.NewKernel(fmt.Sprintf("%s.s%d", g.name, i))
			b.Coord.AddShard(b.Kernels[i])
		}
	}

	// Channels first (they create only events, never processes), then
	// modules in declaration order so thread processes start in the same
	// order a hand-wired build would create them.
	for _, d := range g.chans {
		cm := d.meta()
		ws := b.shardOfChanSide(cm.writer, cm.reader)
		rs := b.shardOfChanSide(cm.reader, cm.writer)
		if ws == rs {
			d.elabLocal(b.Kernels[ws], opt.Impl)
			continue
		}
		bridge := d.elabBridge(b.Kernels[ws], b.Kernels[rs])
		b.Coord.AddBridge(bridge)
		b.Crossings++
		b.CutWeight += cm.trafficWeight()
		b.Bridges = append(b.Bridges, cm.name)
	}
	for _, m := range g.modules {
		k := b.Kernels[b.Assignment[m.idx]]
		if m.body != nil {
			k.Thread(m.name, m.body)
		}
		if m.elab != nil {
			m.elab(k)
		}
	}
	if shards > 1 {
		if nm := defaultNetlistMetrics.Load(); nm != nil {
			nm.CutWeight.Set(int64(b.CutWeight))
		}
	}
	return b, nil
}

// MustBuild is Build, panicking on error — for builders whose graphs are
// statically known to be valid.
func (g *Graph) MustBuild(opt Options) *Build {
	b, err := g.Build(opt)
	if err != nil {
		panic(err)
	}
	return b
}

// shardOfChanSide places one side of a channel: the bound module's shard,
// falling back to the other side's shard (then 0) for unbound sides —
// which only occur in single-shard builds, where every answer is 0.
func (b *Build) shardOfChanSide(side, other int) int {
	if side >= 0 {
		return b.Assignment[side]
	}
	if other >= 0 {
		return b.Assignment[other]
	}
	return 0
}

func boundDesc(cm *chanMeta) string {
	switch {
	case cm.writer < 0 && cm.reader < 0:
		return "writer and reader"
	case cm.writer < 0:
		return "writer"
	default:
		return "reader"
	}
}

// units collapses colocation groups: modules sharing a non-empty group
// form one unit (named after the group), every other module is a unit of
// its own. Units are ordered by first appearance, so a grouped model's
// unit order follows its declaration order. Every module contributes at
// least 1 to its unit's weight: a WithWeight(0) module is still a
// schedulable process the balancer must account for.
func (g *Graph) units() (units []Unit, unitOf []int) {
	unitOf = make([]int, len(g.modules))
	byGroup := map[string]int{}
	for i, m := range g.modules {
		w := m.weight
		if w <= 0 {
			w = 1
		}
		if m.group == "" {
			unitOf[i] = len(units)
			units = append(units, Unit{Name: m.name, Weight: w})
			continue
		}
		u, ok := byGroup[m.group]
		if !ok {
			u = len(units)
			byGroup[m.group] = u
			units = append(units, Unit{Name: m.group})
		}
		units[u].Weight += w
		unitOf[i] = u
	}
	return units, unitOf
}

// partGraph assembles the unit graph the partitioners see: units plus one
// edge per channel whose ports live in different units (unbound sides
// contribute no edge).
func (g *Graph) partGraph(units []Unit, unitOf []int) PartGraph {
	pg := PartGraph{Units: units}
	for _, d := range g.chans {
		cm := d.meta()
		if cm.writer < 0 || cm.reader < 0 {
			continue
		}
		a, b := unitOf[cm.writer], unitOf[cm.reader]
		if a == b {
			continue
		}
		pg.Edges = append(pg.Edges, Edge{A: a, B: b, Weight: cm.trafficWeight()})
	}
	return pg
}

// KernelOf returns the kernel the module elaborated onto.
func (b *Build) KernelOf(m *Module) *sim.Kernel {
	return b.Kernels[b.Assignment[m.idx]]
}

// Shards returns the number of kernels.
func (b *Build) Shards() int { return len(b.Kernels) }

// Run executes the build to quiescence (or to limit): Kernel.Run for a
// single kernel, the conservative coordinator for a sharded build.
func (b *Build) Run(limit sim.Time) {
	if b.Coord != nil {
		b.Coord.Run(limit)
		return
	}
	b.Kernels[0].Run(limit)
}

// RunGuarded is Run under the par supervisor: the run is interrupted
// when ctx ends or when no progress is made for the stall window
// carried by ctx (par.WithStallWindow; absent means no watchdog). It
// returns nil on completion, ctx.Err() on plain cancellation, and a
// *par.StallError with a structured diagnostic on deadline or stall.
// With a background ctx and no window it is exactly Run.
func (b *Build) RunGuarded(ctx context.Context, limit sim.Time) error {
	stall := par.StallWindowFrom(ctx)
	if b.Coord != nil {
		return b.Coord.RunGuarded(ctx, limit, stall)
	}
	return par.RunKernel(ctx, b.Kernels[0], limit, stall)
}

// Stats sums the kernel activity counters over the shards.
func (b *Build) Stats() sim.Stats {
	if b.Coord != nil {
		return b.Coord.KernelStats()
	}
	return b.Kernels[0].Stats()
}

// Advances returns the number of coordinator kernel advances (0 for a
// single-kernel build). Scheduler telemetry: the value depends on
// goroutine interleaving under the async coordinator, so never fold it
// into a deterministic model output.
func (b *Build) Advances() uint64 {
	if b.Coord == nil {
		return 0
	}
	return b.Coord.Stats().Advances
}

// Blocked reports the thread processes that are neither terminated nor
// runnable, per kernel — non-empty after an unlimited Run means the model
// deadlocked (or parks processes by design).
func (b *Build) Blocked() map[string][]string {
	if b.Coord != nil {
		return b.Coord.Blocked()
	}
	out := map[string][]string{}
	if bl := b.Kernels[0].Blocked(); len(bl) > 0 {
		out[b.Kernels[0].Name()] = bl
	}
	return out
}

// Shutdown force-terminates every kernel's live thread processes; call it
// when discarding the build.
func (b *Build) Shutdown() {
	for _, k := range b.Kernels {
		k.Shutdown()
	}
}
