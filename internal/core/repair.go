package core

// Delta BFS repair: given a prior query's exact outcome (levels and canonical
// tree over the OLD graph epoch), the set of vertices an edge delta
// invalidated (delta.Invalidated; MutableService.Repair derives the same set
// from the new epoch's rows, delta.InvalidatedRows) and the edges it
// inserted, Repair derives
// the NEW epoch's BFS tree without a full recompute. The plan it runs on is
// the new epoch's — kernels see the mutated adjacency — while the prior levels
// seed a corrective wave:
//
//   - Preload: every still-valid vertex keeps its prior level (deletions
//     cannot raise it: its whole canonical parent chain survived, so a path
//     of the old length still exists); invalidated vertices reset to -1.
//     What every rank needs alike of the prior outcome — the delegates'
//     levels, which of them and which normals the delta voided — is read
//     once per repair, not once per rank (repairPrologue.gather).
//
//   - Seeds: a level can only change where an edge now breaks the BFS
//     condition (one end more than one level below the other): at (a) an
//     inserted edge that shortens a path — both ends valid, one reached and
//     the other unreached or more than a level deeper (delta.InsertSeeds),
//     which seeds its near end — and (b) the invalidated vertices, whose
//     preloaded -1 every valid neighbor beats. (a) is read off the caller's
//     inserts. For (b) a distributed probe scans the invalidated vertices'
//     rows in the NEW epoch and gives each a tentative level, 1 + the
//     smallest preloaded level among the valid neighbors it can read: an
//     invalid normal reads its same-GPU nn neighbors and, through the
//     replicated delegate tier, its nd delegates; an invalid delegate reads
//     its dd slice and its dn normals on every GPU, and the ranks' partial
//     minima meet in the prologue's max-reduce. The vertex itself is the
//     seed, at that level — not the neighbors, mostly delegate hubs whose
//     rows the wave would otherwise scan. Only valid nn neighbors on other
//     GPUs cannot be read; they travel in one round of the superstep's own
//     machinery, an all-pairs id round, and their owner seeds them.
//     A tentative level reads valid vertices' preloaded levels only, never
//     another tentative one, so it does not depend on scan order; every
//     tentative level is a real path's length, and the wave lowers it where
//     a shorter one exists.
//
//   - Wave: a cold run's superstep loop, lanes and kernels (run.go,
//     kernels.go) — not a copy of them — entered through a wave value built
//     from the schedule: it starts at the minimum seed level, injects each
//     level's seeds when it gets there and stays alive through the deepest
//     seeded level. Direction optimization is off, so every kernel runs
//     forward. The one visit rule of the forward kernels and of applyIDs
//     (improves: level unset or deeper than iter+1) is strict improvement, so
//     inserts can lower still-valid vertices and invalidated ones re-derive at
//     their exact new level. A vertex set at iteration ℓ holds its final
//     level: all later offers are ≥ ℓ+2, so the monotone wave terminates and
//     duplicates are structurally impossible.
//
//   - Tree: the canonical parent resolution (parents.go) is a pure function
//     of (levels, adjacency), so rerunning it over the repaired levels would
//     yield the bit-identical tree — and re-derive, at the cost of half a
//     query, a tree that is almost entirely the prior's. Instead the wave
//     keeps the list of what it re-levelled, and its finisher
//     (repair_tree.go) re-resolves those vertices, the invalidated ones and
//     the insert endpoints only, in a copy of the prior tree; parents.go's
//     header says why that set is enough. It falls back to the full
//     resolution when the set's rows outnumber what that reads. RunRepair, the
//     entry point for a caller without a prior tree, always resolves in full.
//
// The repaired levels and parents equal a full BFS on the new epoch bit for
// bit — repair_test.go asserts both across scales, rank counts, exchange
// strategies and insert/delete/mixed deltas, and FuzzRepairChain over chains
// of epochs in which every repaired tree is the next repair's prior.
//
// Timing: the probe charges its scan compute and, for its round, what the
// all-pairs exchanger charges a superstep's round of the same volumes; a wave
// superstep is a BFS superstep, charged by the same code, so
// repair-vs-recompute simulated seconds are directly comparable. The
// post-wave tree work, patched or resolved, stays excluded from simulated
// time, matching the paper's distance-only reporting; what it sent is reported
// in ParentPairs and the pair byte counters.

import (
	"context"
	"fmt"
	"math"
	"slices"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/delta"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/simgpu"
)

// A corrective-seed schedule entry is one uint64: the level a still-valid
// vertex (local normal id, or dense delegate id in the rank-level schedule) is
// injected at above its id, so a schedule sorts as plain integers into
// (level, id) order.
func seedKey(level int32, id uint32) uint64 { return uint64(level)<<32 | uint64(id) }

func seedLevel(key uint64) int32 { return int32(key >> 32) }

// The probe round runs as superstep probeIter, so its message tag is
// hopTag(probeIter, 0) = probeTag: above every wave superstep's (repair levels
// stay far below 2^23 iterations) and below the parent resolution's
// parentTagBase, where tagSite keys its payload faults on the probe site.
const (
	probeTag  = 1 << 29
	probeIter = probeTag / 64
)

// Prior is a single-source query's exact outcome on the graph epoch a delta
// departed from: its hop distances and its canonical tree (parents.go).
type Prior struct {
	Source  int64
	Levels  []int32
	Parents []int64
}

// repairIn is one repair's input, read-only and shared by its rank
// goroutines, each of which reads the prior arrays at its own vertices and at
// delegates only.
type repairIn struct {
	source  int64
	levels  []int32 // prior hop distances
	parents []int64 // prior tree; nil when the caller has none to start from
	invalid []bool
	// seeds are the insert endpoints the wave starts from (delta.InsertSeeds);
	// touched every still-valid insert endpoint but the root, whose row gained
	// an edge and which the patch therefore re-resolves (the re-pull set R),
	// seed or not: an insert that shortens nothing can still offer an endpoint
	// a smaller-id parent. touched is nil when the tree is resolved from
	// nothing.
	seeds, touched []int64
	// full resolves the tree from nothing even where patching the prior's
	// would be less work; only tests set it.
	full bool
}

// addInserts derives seeds and touched from the delta's inserted edges, whose
// endpoints must be in range.
func (in *repairIn) addInserts(inserts []graph.Edge) {
	in.seeds = delta.InsertSeeds(in.levels, in.invalid, inserts)
	for _, e := range inserts {
		for _, v := range [2]int64{e.U, e.V} {
			if !in.invalid[v] && in.levels[v] >= 0 && v != in.source {
				in.touched = append(in.touched, v)
			}
		}
	}
}

// check validates what both entry points take of a prior outcome.
func (in *repairIn) check(n int64) error {
	if in.source < 0 || in.source >= n {
		return fmt.Errorf("core: source %d out of range [0,%d)", in.source, n)
	}
	if int64(len(in.levels)) != n {
		return fmt.Errorf("core: prior levels cover %d vertices, graph has %d", len(in.levels), n)
	}
	if int64(len(in.invalid)) != n {
		return fmt.Errorf("core: invalid mask covers %d vertices, graph has %d", len(in.invalid), n)
	}
	if in.levels[in.source] != 0 {
		return fmt.Errorf("core: prior levels are not rooted at source %d", in.source)
	}
	if in.invalid[in.source] {
		return fmt.Errorf("core: source %d is invalidated (the root can never be orphaned)", in.source)
	}
	return nil
}

// Repair executes a corrective traversal on a pooled Session: prior is the
// exact outcome of an earlier query on the graph epoch this plan's delta
// departed from, invalid marks the vertices whose prior level the delta voided
// (delta.Invalidated, or delta.InvalidatedRows over this plan's subgraphs,
// which gives the same mask) and inserts are the delta's inserted edges. The
// wave
// starts at the invalidated vertices, each at its tentative level, and at the
// inserts that shorten a path (delta.InsertSeeds). The result is
// bit-identical (levels, and parents when collected) to Plan.Run on this
// plan, at a fraction of the simulated cost for small deltas — and of the
// host's: the tree is the prior's, patched where the delta could have changed
// it (repair_tree.go).
func (p *Plan) Repair(ctx context.Context, prior Prior, invalid []bool, inserts []graph.Edge, ov Overrides) (*metrics.RunResult, error) {
	opts, err := p.effectiveOptions(ov)
	if err != nil {
		return nil, err
	}
	n := p.sg.N
	in := &repairIn{source: prior.Source, levels: prior.Levels, parents: prior.Parents, invalid: invalid}
	if err := in.check(n); err != nil {
		return nil, err
	}
	if int64(len(in.parents)) != n {
		return nil, fmt.Errorf("core: prior parents cover %d vertices, graph has %d", len(in.parents), n)
	}
	if in.parents[in.source] != in.source {
		return nil, fmt.Errorf("core: prior tree is not rooted at source %d", in.source)
	}
	for _, e := range inserts {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("core: inserted edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
		}
	}
	in.addInserts(inserts)
	return p.repair(ctx, opts, in)
}

// RunRepair is Repair for a caller that holds no prior tree: the same wave
// from the same inputs — seeds are the endpoints of the inserts that shorten
// a path, as delta.Affected derives them; any other still-valid vertex may be
// passed too, and only makes the wave longer — and then the tree resolved
// from nothing, as after a cold run.
func (p *Plan) RunRepair(ctx context.Context, source int64, prior []int32, invalid []bool, seeds []int64, ov Overrides) (*metrics.RunResult, error) {
	opts, err := p.effectiveOptions(ov)
	if err != nil {
		return nil, err
	}
	n := p.sg.N
	in := &repairIn{source: source, levels: prior, invalid: invalid, seeds: seeds}
	if err := in.check(n); err != nil {
		return nil, err
	}
	for _, v := range seeds {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("core: repair seed %d out of range [0,%d)", v, n)
		}
		if invalid[v] || prior[v] < 0 {
			return nil, fmt.Errorf("core: repair seed %d is not a still-valid vertex of the prior result", v)
		}
	}
	return p.repair(ctx, opts, in)
}

// repair runs a validated repair on a pooled Session. The wave runs forward
// only, whatever the options say: the improvement wave has no backward form.
func (p *Plan) repair(ctx context.Context, opts Options, in *repairIn) (*metrics.RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts.DirectionOptimized = false
	s := p.acquire(opts)
	defer p.release(s)
	return s.repair(ctx, in)
}

// repair executes one repair on this (already configured and exclusive)
// session. A repair that may patch starts its result as one contiguous copy of
// the prior's, made here on the caller goroutine, which every rank then
// corrects at the entries it owns; the others start from fresh arrays as a
// cold run does.
func (e *Session) repair(ctx context.Context, in *repairIn) (*metrics.RunResult, error) {
	e.resetTraversal()
	var out treeOut
	if in.parents != nil && e.opts.CollectParents {
		out.parents = slices.Clone(in.parents)
		if e.opts.CollectLevels {
			out.levels = slices.Clone(in.levels)
		}
	} else {
		out = newTreeOut(&e.opts, e.sg.N)
	}
	return e.traverse(ctx, in.source, out, func() error { return e.repairWave(ctx, in) })
}

// gather reads, once per repair on the phase driver's goroutine, what every
// rank's preload takes of the prior outcome and the invalid mask: the
// delegates' prior levels by global id, -1 where invalidated, so a
// delegate-set shift between epochs lands every level in the right place; the
// invalidated delegates in ascending order (voided); and each GPU's
// invalidated normal vertices as ascending local slots.
func (pr *repairPrologue) gather() {
	e, in := pr.e, pr.in
	sep := e.sg.Sep
	if int64(len(pr.dLevel)) != e.d {
		pr.dLevel = make([]int32, e.d)
	}
	for di, v := range sep.DelegateGlobal {
		pr.dLevel[di] = in.levels[v]
	}
	if len(pr.slots) != e.p {
		pr.slots = make([][]uint32, e.p)
	}
	for g := range pr.slots {
		pr.slots[g] = pr.slots[g][:0]
	}
	pr.voided = pr.voided[:0]
	for v, bad := range in.invalid {
		if !bad {
			continue
		}
		if di := sep.DelegateID[v]; di >= 0 {
			pr.dLevel[di] = -1
			pr.voided = append(pr.voided, uint32(di))
		} else {
			g := e.cfg.OwnerGPU(int64(v))
			pr.slots[g] = append(pr.slots[g], e.cfg.LocalID(int64(v)))
		}
	}
}

// repairPreload fills this rank's level and parent arrays — the repair's
// session was reset without them — from what gather read: every slot takes the
// prior level of its vertex, and then the delegates' home slots (the plan's
// delegateHomes) and the invalidated normals' go back to -1, the latter
// joining the GPU's re-pull list. Delegates' normal home slots hold -1 exactly
// as the plain BFS leaves them — a delegate's level lives only in the rank's
// delegate tier (its adjacency is dd/dn, so a level in the normal slot would
// claim a vertex the nn/nd machinery can never explain); the rank copies
// gather's delegate levels into its tier and marks the invalidated delegates
// in its re-pull mask. No vertex has a parent yet: the prior's are read where
// the tree is patched (repair_tree.go).
func (e *Session) repairPreload(myGPUs []*gpuState, sc *rankScratch, pr *repairPrologue) {
	prior := pr.in.levels
	homes := e.homes.get(e.sg)
	p64 := int64(e.p)
	for _, gs := range myGPUs {
		g := gs.pg.GPU
		v := e.cfg.Residue(gs.pg.Rank, gs.pg.Slot)
		for slot := range gs.levels {
			gs.levels[slot] = prior[v]
			v += p64
		}
		for _, slot := range homes[g] {
			gs.levels[slot] = -1
		}
		for _, slot := range pr.slots[g] {
			gs.levels[slot] = -1
		}
		gs.rep = append(gs.rep, pr.slots[g]...)
		if e.opts.CollectParents {
			clear(gs.parents)
		}
	}
	copy(sc.dt.level, pr.dLevel)
	if sc.members == nil {
		sc.members = bitmask.New(e.d)
	}
	sc.members.Reset()
	for _, di := range pr.voided {
		sc.members.Set(int64(di))
	}
}

// repairProbe seeds the wave: each invalid vertex at its tentative level, 1 +
// the smallest preloaded level among the valid neighbors its row reaches
// here, and the caller's insert seeds at their owners, which also list the
// touched insert endpoints in the re-pull set. Owned invalid normal
// rows scan on the owner GPU, whose tentative level it schedules; invalid
// delegate rows scan sliced across every GPU, and the rank's partial minima
// go to sc.dTent, negated, one entry per invalid delegate in pr.voided
// order (noTentative where none), for the prologue's max-fold. Every scan
// reads only valid vertices' levels: invalid ones hold -1 until readProbe
// and scheduleSeeds write the tentative levels. The nn neighbors on other
// GPUs travel in one superstep's round, run as superstep probeIter through
// the cold run's lanes and the all-pairs exchanger, whose posts repairProbe
// makes, and their owner keeps them as seeds where its preloaded levels hold
// one (probeSeeds, readProbe). Returns the scan's compute seconds (max over
// this rank's GPUs).
func (e *Session) repairProbe(rank int, comm *mpi.Comm, myGPUs []*gpuState, sc *rankScratch, pr *repairPrologue) (comp float64) {
	in := pr.in
	pgpu := e.shape.GPUsPerRank
	p64 := int64(e.p)
	sep := e.sg.Sep
	dl := sc.dt.level
	tent := sc.dTent[:0]
	for range pr.voided {
		tent = append(tent, noTentative)
	}
	sc.dTent = tent
	for _, gs := range myGPUs {
		var edges, rows int64
		pg := gs.pg
		// Owned invalid normal vertices: their nn/nd rows name every neighbor
		// that might re-derive them. Invalid delegates are handled below
		// (their home slots have no nn/nd rows).
		for _, local := range pr.slots[pg.GPU] {
			slot := int64(local)
			rows++
			best := int32(math.MaxInt32)
			for _, nb := range pg.NN.Neighbors(slot) {
				edges++
				owner := e.cfg.OwnerGPU(nb)
				local := uint32(nb / p64)
				if owner == pg.GPU {
					if lvl := gs.levels[local]; lvl >= 0 {
						best = min(best, lvl)
					}
				} else {
					gs.bin(owner, local)
				}
			}
			for _, dv := range pg.ND.Neighbors(slot) {
				edges++
				if lvl := dl[dv]; lvl >= 0 {
					best = min(best, lvl)
				}
			}
			if best != math.MaxInt32 {
				gs.repSeeds = append(gs.repSeeds, seedKey(best+1, uint32(slot)))
			}
		}
		// Invalid delegates: every GPU scans its slice of their dd/dn rows.
		for k, di := range pr.voided {
			rows++
			di64 := int64(di)
			best := int32(math.MaxInt32)
			dd := pg.DD.Neighbors(di64)
			for _, dv := range dd {
				if lvl := dl[dv]; lvl >= 0 {
					best = min(best, lvl)
				}
			}
			dn := pg.DN.Neighbors(di64)
			for _, lv := range dn {
				if lvl := gs.levels[lv]; lvl >= 0 {
					best = min(best, lvl)
				}
			}
			edges += int64(len(dd) + len(dn))
			if best != math.MaxInt32 {
				tent[k] = max(tent[k], -int64(best+1))
			}
		}
		if edges+rows > 0 {
			if c := e.charge(simgpu.KernelCost{Edges: edges, Vertices: rows, Strategy: simgpu.TWBDynamic}); c > comp {
				comp = c
			}
		}
	}
	// The caller's insert seeds and the re-pull set's insert endpoints:
	// delegates from replicated data (every rank lists the same ones), normals
	// on their owner GPU.
	for _, v := range in.seeds {
		if di := sep.DelegateID[v]; di >= 0 {
			sc.dSeeds = append(sc.dSeeds, seedKey(in.levels[v], uint32(di)))
		} else if g := e.cfg.OwnerGPU(v); g >= rank*pgpu && g < (rank+1)*pgpu {
			e.gpus[g].repSeeds = append(e.gpus[g].repSeeds, seedKey(in.levels[v], e.cfg.LocalID(v)))
		}
	}
	for _, v := range in.touched {
		if di := int64(sep.DelegateID[v]); di >= 0 {
			sc.members.Set(di)
		} else if g := e.cfg.OwnerGPU(v); g >= rank*pgpu && g < (rank+1)*pgpu {
			e.gpus[g].rep = append(e.gpus[g].rep, e.cfg.LocalID(v))
		}
	}

	// The round: the binned probe targets move as any superstep's ids,
	// posted ahead of a rendezvous of their own, a sibling GPU's applied
	// directly (readProbe). What post and deliver charge to the GPUs'
	// iteration work is never read: the wave's first kernels reset it.
	l := &sc.lanes
	*l = sourceLanes{e: e, rank: rank, gpus: myGPUs, sc: sc, source: in.source}
	l.post(comm, e.exchangers(rank).get(ExchangeAllPairs), probeIter)
	return comp
}

// noTentative is a dTent entry for an invalid delegate none of whose valid
// neighbors a rank's slices reach.
const noTentative = math.MinInt64

// probeSeeds is the probe's visit rule for the targets it found on a GPU: a
// target that holds a level after the preload is a seed at that level.
func probeSeeds(gs *gpuState, ids []uint32, _ int32) {
	for _, id := range ids {
		if lvl := gs.levels[id]; lvl >= 0 {
			gs.repSeeds = append(gs.repSeeds, seedKey(lvl, id))
		}
	}
}

// repairPrologue is a repair's stepper (driver.go) for the three phases ahead
// of its wave, each ending in one of the prologue's three rendezvous: the
// preload, the probe's scan and its round's posts; the round's reads and the
// normal seed schedules, ending in a max-fold; the delegate seed schedule and
// the per-level normal seed counts, ending in a sum.
type repairPrologue struct {
	e  *Session
	in *repairIn
	// mx is the max-fold's result, which every rank reads in phaseSeeds.
	mx []int64
	// What gather read of the prior outcome for every rank, read-only in the
	// phases: the delegates' levels (-1 invalidated), the invalidated
	// delegates in ascending order, and per GPU the invalidated normals'
	// ascending local slots. Reused across pooled repairs.
	dLevel []int32
	voided []uint32
	slots  [][]uint32
	// full is the row entries a full resolution of the wave's levels reads
	// (fullReads), priced once before the finisher starts.
	full int64
	// vol and push are fullReads' buffers.
	vol  []int64
	push []bool
}

func (pr *repairPrologue) step(ph phase, rank int) {
	e, sc := pr.e, pr.e.scratch[rank]
	myGPUs, comm := e.rankGPUs(rank), e.world.Rank(rank)
	switch ph {
	case phaseProbe:
		e.repairPreload(myGPUs, sc, pr)
		sc.probeComp = e.repairProbe(rank, comm, myGPUs, sc, pr)
	case phaseProbeRead:
		e.readProbe(comm, myGPUs, sc)
	case phaseSeeds:
		e.scheduleSeeds(myGPUs, sc, pr)
	}
}

// repairWave is a repair's corrective traversal: the prologue — preload,
// probe, seed schedules and their global level bounds and counts, the probe's
// charge — and then the shared superstep loop and the finisher, or the
// finisher alone when nothing is seeded. The prologue is three rendezvous: the
// one the probe round's posts ride, one max-fold and one sum.
func (e *Session) repairWave(ctx context.Context, in *repairIn) error {
	pr, d := &e.probe, &e.drv
	pr.e, pr.in = e, in
	pr.gather()
	// The preload writes every vertex's level.
	d.fan = e.sg.N >= fanWork
	if err := d.run(pr, phaseProbe); err != nil {
		return err
	}
	d.world.Meet()
	if err := d.run(pr, phaseProbeRead); err != nil {
		return err
	}
	d.world.Meet()
	pr.chargeProbe()
	if err := d.run(pr, phaseSeeds); err != nil {
		return err
	}

	// Every rank derived the same wave span from replicated data; rank 0's
	// stands for all.
	lead := e.scratch[0]
	lo, hi := lead.seedLo, lead.seedHi
	if lo > hi {
		// No seeds anywhere: the prior levels already are the new epoch's
		// exact outcome (invalidated vertices, if any, are unreachable now),
		// and the tree differs from the prior's at those vertices only.
		return e.finishRepairs(in)
	}
	// Per-level global seed counts, the sum: the policy's frontier-size
	// inputs.
	d.world.Meet()
	nCounts, dCounts := make([]int64, hi+1), make([]int64, hi+1)
	for _, sc := range e.scratch {
		for lvl, n := range sc.seedCounts {
			nCounts[lvl] += n
		}
	}
	for _, s := range lead.dSeeds {
		dCounts[seedLevel(s)]++
	}
	w := wave{
		schedule: schedule{first: int32(lo), lastSeed: int32(hi), nSeeds: nCounts, dSeeds: dCounts},
		repair:   in,
	}
	e.bindWave(in.source, w)
	if err := e.drive(ctx, e.loops, w.schedule); err != nil || e.rec.cancelled {
		return err
	}
	return e.finishRepairs(in)
}

// readProbe reads the probe round's posts (the targets other GPUs found here
// become seeds, probeSeeds), sorts and deduplicates the rank's normal
// injection schedules, and writes the rank's side of the max-fold into sc.mx:
// the seed-level bounds (the lower one negated), the scan's compute as a bit
// pattern (non-negative doubles order as their bits), the round's amplified
// sent, codec and received volumes, and the negated partial minima of the
// invalid delegates' tentative levels. An invalid vertex is scheduled once, at
// its tentative level, and takes it now: the probe's reads are over.
func (e *Session) readProbe(comm *mpi.Comm, myGPUs []*gpuState, sc *rankScratch) {
	probe := sc.lanes.deliver(comm, sc.rx.get(ExchangeAllPairs), probeIter, probeSeeds)
	lo, hi := int64(math.MaxInt64), int64(-1)
	for _, gs := range myGPUs {
		slices.Sort(gs.repSeeds)
		gs.repSeeds = slices.Compact(gs.repSeeds)
		for _, k := range gs.repSeeds {
			if id := uint32(k); gs.levels[id] < 0 {
				gs.levels[id] = seedLevel(k)
			}
		}
		lo, hi = seedSpan(gs.repSeeds, lo, hi)
	}
	mx := append(sc.mx[:0], hi, -lo, fbits(sc.probeComp),
		e.ampBytes(probe.sent), e.ampBytes(probe.codecRaw), e.ampBytes(probe.recv))
	sc.mx = append(mx, sc.dTent...)
}

// seedSpan widens [lo, hi] by a sorted schedule's levels, which it holds at
// its ends.
func seedSpan(keys []uint64, lo, hi int64) (int64, int64) {
	if len(keys) == 0 {
		return lo, hi
	}
	return min(lo, int64(seedLevel(keys[0]))), max(hi, int64(seedLevel(keys[len(keys)-1])))
}

// chargeProbe is the max-fold of the ranks' readProbe sections and its closer,
// which charges the probe: the scan's compute plus what the all-pairs
// exchanger charges a round of the reduced volumes, through the same overlap
// model as a BSP iteration. Its NVLink tier is not charged.
func (pr *repairPrologue) chargeProbe() {
	e := pr.e
	mx := append(pr.mx[:0], e.scratch[0].mx...)
	for _, sc := range e.scratch[1:] {
		for j, v := range sc.mx {
			mx[j] = max(mx[j], v)
		}
	}
	pr.mx = mx
	rt := e.scratch[0].rx.get(ExchangeAllPairs).remoteTime(remoteVolumes{hopBytes: mx[3:4], hopCodecRaw: mx[4:5], hopRecv: mx[5:6]})
	parts := metrics.Breakdown{Computation: floatOf(mx[2]), RemoteNormal: rt.seconds}
	e.rec.SimSeconds += e.iterElapsed(parts, e.loop.sync)
	e.rec.Parts.Add(parts)
}

// scheduleSeeds builds the rank's delegate schedule from the max-fold mx —
// the insert seeds the probe listed and every invalid delegate a rank reached,
// at its tentative level, from replicated data, so identical on every rank —
// and the wave's span, the global seed-level bounds, and counts the rank's
// normal seeds per level for the sum.
func (e *Session) scheduleSeeds(myGPUs []*gpuState, sc *rankScratch, pr *repairPrologue) {
	mx := pr.mx
	hi, lo := mx[0], -mx[1]
	dl := sc.dt.level
	for k, di := range pr.voided {
		if t := mx[6+k]; t != noTentative {
			dl[di] = int32(-t)
			sc.dSeeds = append(sc.dSeeds, seedKey(int32(-t), di))
		}
	}
	slices.Sort(sc.dSeeds)
	sc.dSeeds = slices.Compact(sc.dSeeds)
	lo, hi = seedSpan(sc.dSeeds, lo, hi)
	sc.seedLo, sc.seedHi = lo, hi
	sc.seedCounts = sc.seedCounts[:0]
	if lo > hi {
		return
	}
	sc.seedCounts = grownInt64(sc.seedCounts, int(hi+1))
	for _, gs := range myGPUs {
		for _, s := range gs.repSeeds {
			sc.seedCounts[seedLevel(s)]++
		}
	}
}

// injectSeeds moves the seeds scheduled at level iter into the frontier. The
// guard (level still equals the stored level) drops seeds the wave already
// improved past — those entered the frontier at their better level. Delegate
// levels are replicated, so the guard decides identically on every rank and
// the frontier masks stay globally consistent.
func (e *Session) injectSeeds(myGPUs []*gpuState, sc *rankScratch, iter int32) {
	for sc.dCursor < len(sc.dSeeds) && seedLevel(sc.dSeeds[sc.dCursor]) == iter {
		if di := int64(uint32(sc.dSeeds[sc.dCursor])); sc.dt.level[di] == iter {
			sc.dt.frontDelegate(di)
		}
		sc.dCursor++
	}
	for _, gs := range myGPUs {
		for gs.repCursor < len(gs.repSeeds) && seedLevel(gs.repSeeds[gs.repCursor]) == iter {
			id := uint32(gs.repSeeds[gs.repCursor])
			if gs.levels[id] == iter {
				gs.inFront = append(gs.inFront, id)
			}
			gs.repCursor++
		}
	}
}
