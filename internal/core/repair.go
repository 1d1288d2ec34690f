package core

// Delta BFS repair: given a prior query's exact outcome (levels and canonical
// tree over the OLD graph epoch), the set of vertices an edge delta
// invalidated (delta.Invalidated) and the edges it inserted, Repair derives
// the NEW epoch's BFS tree without a full recompute. The plan it runs on is
// the new epoch's — kernels see the mutated adjacency — while the prior levels
// seed a corrective wave:
//
//   - Preload: every still-valid vertex keeps its prior level (deletions
//     cannot raise it: its whole canonical parent chain survived, so a path
//     of the old length still exists); invalidated vertices reset to -1.
//
//   - Seeds: the only places the new tree can differ start at (a) still-valid
//     endpoints of inserted edges — the only valid vertices whose adjacency
//     gained an edge, hence the only origins of a level decrease — and (b)
//     still-valid neighbors of invalidated vertices, which re-derive the
//     invalidated region at its correct new levels. (a) is read off the
//     caller's inserts; (b) is discovered here by a distributed probe over
//     the invalidated vertices' adjacency, with one exchange of raw wire
//     blocks for remote nn probes and one mask allreduce for delegate seeds.
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
// Timing: the probe charges its scan compute and one point-to-point round;
// a wave superstep is a BFS superstep, charged by the same code, so
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
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/wire"
)

// A corrective-seed schedule entry is one uint64: the level a still-valid
// vertex (local normal id, or dense delegate id in the rank-level schedule) is
// injected at above its id, so a schedule sorts as plain integers into
// (level, id) order.
func seedKey(level int32, id uint32) uint64 { return uint64(level)<<32 | uint64(id) }

func seedLevel(key uint64) int32 { return int32(key >> 32) }

// probeTag is the probe exchange's message tag: above every hopTag (repair
// levels stay far below 2^23 iterations) and below the parent resolution's
// parentTagBase; the per-source-GPU offset stays under GPUsPerRank.
const probeTag = 1 << 29

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
	seeds   []int64 // still-valid insert endpoints
	// full resolves the tree from nothing even where patching the prior's
	// would be less work; only tests set it.
	full bool
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
// (delta.Invalidated) and inserts are the delta's inserted edges, whose
// still-valid endpoints seed the wave. The result is bit-identical (levels,
// and parents when collected) to Plan.Run on this plan, at a fraction of the
// simulated cost for small deltas — and of the host's: the tree is the
// prior's, patched where the delta could have changed it (repair_tree.go).
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
		for _, v := range [2]int64{e.U, e.V} {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("core: inserted edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
			}
			if !invalid[v] && in.levels[v] >= 0 {
				in.seeds = append(in.seeds, v)
			}
		}
	}
	return p.repair(ctx, opts, in)
}

// RunRepair is Repair for a caller that holds no prior tree: the same wave
// from the same inputs — seeds are the still-valid insert endpoints, as
// delta.Affected derives them — and then the tree resolved from nothing, as
// after a cold run.
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
	return e.traverse(ctx, in.source, out, func(rank int, comm *mpi.Comm) {
		e.repairRank(ctx, rank, comm, in)
	})
}

// repairPreload fills this rank's level and parent arrays — the repair's
// session was reset without them — mapping the prior outcome onto this epoch's
// layout: still-valid vertices keep their prior level, by global id, so a
// delegate-set shift between epochs lands every level in the right array;
// invalidated ones start at -1 and join the re-pull set (the GPU's list, the
// rank's delegate mask). Delegates' normal home slots hold -1 exactly as the
// plain BFS leaves them — a delegate's level lives only in the replicated
// delegateLevel array (its adjacency is dd/dn, so a level in the normal slot
// would claim a vertex the nn/nd machinery can never explain); the rank walks
// the delegate directory once and copies the replica. No vertex has a parent
// yet: the prior's are read where the tree is patched (repair_tree.go).
func (e *Session) repairPreload(myGPUs []*gpuState, sc *rankScratch, in *repairIn) {
	sep := e.sg.Sep
	p64 := int64(e.p)
	for _, gs := range myGPUs {
		v := e.cfg.Residue(gs.pg.Rank, gs.pg.Slot)
		for slot := range gs.levels {
			lvl := int32(-1)
			switch {
			case sep.DelegateID[v] >= 0:
			case in.invalid[v]:
				gs.rep = append(gs.rep, uint32(slot))
			default:
				lvl = in.levels[v]
			}
			gs.levels[slot] = lvl
			v += p64
		}
		if gs.trackParents {
			for slot := range gs.parents {
				gs.parents[slot] = -1
			}
		}
	}
	if sc.members == nil {
		sc.members = bitmask.New(e.d)
	}
	sc.members.Reset()
	dl := myGPUs[0].delegateLevel
	for di, v := range sep.DelegateGlobal {
		if in.invalid[v] {
			dl[di] = -1
			sc.members.Set(int64(di))
		} else {
			dl[di] = in.levels[v]
		}
	}
	for _, gs := range myGPUs[1:] {
		copy(gs.delegateLevel, dl)
	}
}

// repairProbe discovers the still-valid neighbors of invalidated vertices —
// the seeds that re-derive the invalidated region — and routes the caller's
// insert seeds to their owners. Owned invalid normal rows scan on the owner
// GPU; invalid delegate rows scan sliced across every GPU; remote nn probe
// targets resolve through one packed exchange (the receiver checks its
// preloaded levels); delegate seeds merge through one mask allreduce, so
// every rank holds the identical replicated seed set. Returns the probe's
// local compute seconds (max over this rank's GPUs) and this rank's sent
// probe bytes (fixed-width id bytes, the accounting all-pairs uses with the
// codec off).
func (e *Session) repairProbe(rank int, comm *mpi.Comm, myGPUs []*gpuState, sc *rankScratch, in *repairIn) (comp float64, bytes int64) {
	invalid := in.invalid
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	p64 := int64(e.p)
	sep := e.sg.Sep
	sc.rankMask.Reset()
	for _, gs := range myGPUs {
		var edges, rows int64
		pg := gs.pg
		// Owned invalid normal vertices: their nn/nd rows name every neighbor
		// that might re-derive them. Invalid delegates are handled below
		// (their home slots have no nn/nd rows).
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			v := e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			if !invalid[v] || sep.IsDelegate(v) {
				continue
			}
			rows++
			for _, nb := range pg.NN.Neighbors(slot) {
				edges++
				owner := e.cfg.OwnerGPU(nb)
				local := uint32(nb / p64)
				if owner == pg.GPU {
					if lvl := gs.levels[local]; lvl >= 0 {
						gs.repSeeds = append(gs.repSeeds, seedKey(lvl, local))
					}
				} else {
					gs.bins.Add(owner, local)
				}
			}
			for _, dv := range pg.ND.Neighbors(slot) {
				edges++
				if gs.delegateLevel[dv] >= 0 {
					sc.rankMask.Set(int64(dv))
				}
			}
		}
		// Invalid delegates: every GPU scans its slice of their dd/dn rows.
		for di, v := range sep.DelegateGlobal {
			if !invalid[v] {
				continue
			}
			rows++
			di64 := int64(di)
			for _, dv := range pg.DD.Neighbors(di64) {
				edges++
				if gs.delegateLevel[dv] >= 0 {
					sc.rankMask.Set(int64(dv))
				}
			}
			for _, lv := range pg.DN.Neighbors(di64) {
				edges++
				if lvl := gs.levels[lv]; lvl >= 0 {
					gs.repSeeds = append(gs.repSeeds, seedKey(lvl, lv))
				}
			}
		}
		if edges+rows > 0 {
			if c := e.charge(gs.dev, simgpu.KernelCost{Edges: edges, Vertices: rows, Strategy: simgpu.TWBDynamic}); c > comp {
				comp = c
			}
		}
	}
	// The caller's insert seeds: delegates fold into the replicated mask
	// (every rank sets the identical bits), normals route to their owner GPU.
	// Either way they join the re-pull set — an endpoint's row gained an edge —
	// unless it is the root, whose parent is itself whatever its row holds.
	for _, v := range in.seeds {
		if di := int64(sep.DelegateID[v]); di >= 0 {
			sc.rankMask.Set(di)
			if v != in.source {
				sc.members.Set(di)
			}
			continue
		}
		if g := e.cfg.OwnerGPU(v); g >= rank*pgpu && g < (rank+1)*pgpu {
			gs, local := e.gpus[g], e.cfg.LocalID(v)
			gs.repSeeds = append(gs.repSeeds, seedKey(in.levels[v], local))
			if v != in.source {
				gs.rep = append(gs.rep, local)
			}
		}
	}

	// One exchange resolves the remote nn probes: the owner checks its
	// preloaded levels and keeps the still-valid targets as seeds. The probe
	// ids go fixed-width whatever the query's compression — raw wire blocks
	// charged 4 bytes per id — so they are checksummed like every other
	// message.
	arrivals := sc.resetArrivals()
	for dst := 0; dst < prank; dst++ {
		if dst == rank {
			continue
		}
		for k, gs := range myGPUs {
			payload, st := wire.EncodeRank(gs.bins.PerGPU[dst*pgpu:(dst+1)*pgpu], wire.ModeOff)
			bytes += st.EncodedBytes
			comm.Isend(dst, probeTag+k, payload)
		}
	}
	// Intra-rank probe targets check directly (NVLink, not NIC).
	for _, src := range myGPUs {
		for s, gs := range myGPUs {
			for _, id := range src.bins.PerGPU[rank*pgpu+s] {
				if lvl := gs.levels[id]; lvl >= 0 {
					gs.repSeeds = append(gs.repSeeds, seedKey(lvl, id))
				}
			}
		}
	}
	for src := 0; src < prank; src++ {
		if src == rank {
			continue
		}
		for k := 0; k < pgpu; k++ {
			buf := comm.Recv(src, probeTag+k)
			if err := wire.DecodeRankInto(buf, arrivals); err != nil {
				panic(fmt.Errorf("core: corrupt probe payload: %w", err))
			}
		}
	}
	for s, ids := range arrivals {
		gs := myGPUs[s]
		for _, id := range ids {
			if lvl := gs.levels[id]; lvl >= 0 {
				gs.repSeeds = append(gs.repSeeds, seedKey(lvl, id))
			}
		}
	}
	for _, gs := range myGPUs {
		gs.bins.Reset()
	}
	// Merge the delegate seed contributions; every rank keeps an identical
	// copy of the reduced set.
	comm.AllreduceOr(sc.rankMask.Words())
	if sc.seedMask == nil {
		sc.seedMask = bitmask.New(e.d)
	}
	sc.seedMask.CopyFrom(sc.rankMask)
	return comp, bytes
}

// repairRank is one rank's corrective traversal: the repair-specific
// prologue — preload, probe, seed schedules and their global level bounds
// and counts, the probe's charge — and then the shared superstep loop.
func (e *Session) repairRank(ctx context.Context, rank int, comm *mpi.Comm, in *repairIn) {
	myGPUs := e.rankGPUs(rank)
	sc := e.scratch[rank]

	e.repairPreload(myGPUs, sc, in)
	probeComp, probeBytes := e.repairProbe(rank, comm, myGPUs, sc, in)

	// Sorted, deduplicated injection schedules. The delegate schedule is
	// built from the replicated seed mask and levels, so it is identical on
	// every rank without further communication.
	for _, gs := range myGPUs {
		slices.Sort(gs.repSeeds)
		gs.repSeeds = slices.Compact(gs.repSeeds)
	}
	dl := myGPUs[0].delegateLevel
	sc.seedMask.ForEach(func(di int64) {
		sc.dSeeds = append(sc.dSeeds, seedKey(dl[di], uint32(di)))
	})
	slices.Sort(sc.dSeeds)

	// Global seed-level bounds (one min-allreduce carries both via negation)
	// and per-level global seed counts — the wave's iteration range and the
	// policy's frontier-size inputs. Sorted schedules hold both bounds at
	// their ends.
	lo, hi := int64(math.MaxInt64), int64(-1)
	note := func(keys []uint64) {
		if len(keys) > 0 {
			lo = min(lo, int64(seedLevel(keys[0])))
			hi = max(hi, int64(seedLevel(keys[len(keys)-1])))
		}
	}
	for _, gs := range myGPUs {
		note(gs.repSeeds)
	}
	note(sc.dSeeds)
	mm := append(sc.sums[:0], lo, -hi)
	sc.sums = mm
	comm.AllreduceMin(mm)
	lo, hi = mm[0], -mm[1]
	var nCounts, dCounts []int64
	if lo <= hi {
		nCounts = make([]int64, hi+1)
		dCounts = make([]int64, hi+1)
		for _, gs := range myGPUs {
			for _, s := range gs.repSeeds {
				nCounts[seedLevel(s)]++
			}
		}
		comm.AllreduceSum(nCounts)
		for _, s := range sc.dSeeds {
			dCounts[seedLevel(s)]++
		}
	}

	// Charge the probe round: scan compute plus one point-to-point exchange
	// over the max-reduced per-rank probe volume, through the same overlap
	// model as a BSP iteration.
	vec := append(sc.vec[:0], probeComp, float64(probeBytes))
	sc.vec = vec
	sc.fbits = maxFloatsAllreduce(comm, vec, sc.fbits)
	if rank == 0 {
		var probeNet float64
		if b := e.ampBytes(int64(vec[1])); b > 0 {
			probeNet = e.opts.Net.PointToPoint(b, e.effMessageBytes(b))
		}
		parts := metrics.Breakdown{Computation: vec[0], RemoteNormal: probeNet}
		e.rec.simSeconds += e.iterElapsed(parts)
		e.rec.parts.Add(parts)
	}

	if lo > hi {
		// No seeds anywhere: the prior levels already are the new epoch's
		// exact outcome (invalidated vertices, if any, are unreachable now),
		// and the tree differs from the prior's at those vertices only.
		if e.collects() {
			e.finishRepair(rank, comm, in)
		}
		return
	}

	e.runWave(ctx, rank, comm, in.source, wave{
		schedule: schedule{first: int32(lo), lastSeed: int32(hi), nSeeds: nCounts, dSeeds: dCounts},
		repair:   in,
	})
}

// injectSeeds moves the seeds scheduled at level iter into the frontier. The
// guard (level still equals the stored level) drops seeds the wave already
// improved past — those entered the frontier at their better level. Delegate
// levels are replicated, so the guard decides identically on every GPU and
// the frontier masks stay globally consistent.
func (e *Session) injectSeeds(myGPUs []*gpuState, sc *rankScratch, iter int32) {
	for sc.dCursor < len(sc.dSeeds) && seedLevel(sc.dSeeds[sc.dCursor]) == iter {
		di := int64(uint32(sc.dSeeds[sc.dCursor]))
		for _, gs := range myGPUs {
			if gs.delegateLevel[di] == iter {
				gs.frontDelegate(di)
			}
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
