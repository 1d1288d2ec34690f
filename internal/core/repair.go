package core

// Delta BFS repair: given a prior query's exact outcome (levels over the OLD
// graph epoch) and the set of vertices an edge delta invalidated
// (delta.Affected), RunRepair re-derives the NEW epoch's BFS tree without a
// full recompute. The plan it runs on is the new epoch's — kernels see the
// mutated adjacency — while the prior levels seed a corrective wave:
//
//   - Preload: every still-valid vertex keeps its prior level (deletions
//     cannot raise it: its whole canonical parent chain survived, so a path
//     of the old length still exists); invalidated vertices reset to -1.
//
//   - Seeds: the only places the new tree can differ start at (a) still-valid
//     endpoints of inserted edges — the only valid vertices whose adjacency
//     gained an edge, hence the only origins of a level decrease — and (b)
//     still-valid neighbors of invalidated vertices, which re-derive the
//     invalidated region at its correct new levels. (a) comes from the caller
//     (delta.Affected); (b) is discovered here by a distributed probe over
//     the invalidated vertices' adjacency, with one exchange of raw wire
//     blocks for remote nn probes and one mask allreduce for delegate seeds.
//
//   - Wave: the superstep loop itself (runEnv.runRank, run.go) — not a copy
//     of it — entered through a wave value built from the schedule: it starts
//     at the minimum seed level, injects each level's seeds when it gets
//     there, stays alive through the deepest seeded level, runs the four
//     forward repair kernels below and applies arrivals with repairApplyIDs.
//     The visit condition everywhere is strict improvement (level == -1 ||
//     level > iter+1), so inserts can lower still-valid vertices and
//     invalidated ones re-derive at their exact new level. A vertex set at
//     iteration ℓ holds its final level: all later offers are ≥ ℓ+2, so the
//     monotone wave terminates and duplicates are structurally impossible.
//
// The repaired levels equal a full BFS on the new epoch bit-for-bit, and
// because the canonical parent resolution (parents.go) is a pure function of
// levels, rerunning it afterwards yields the bit-identical tree too —
// repair_test.go asserts both across scales, rank counts, exchange
// strategies and insert/delete/mixed deltas.
//
// Timing: the probe charges its scan compute and one point-to-point round;
// a wave superstep is a BFS superstep, charged by the same code, so
// repair-vs-recompute simulated seconds are directly comparable. The
// post-wave parent resolution stays excluded from simulated time, matching
// the paper's distance-only reporting.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/wire"
)

// repairSeed is one corrective-seed schedule entry: a still-valid vertex
// (local normal id, or dense delegate id in the rank-level schedule) injected
// into the frontier when the wave reaches its level.
type repairSeed struct {
	level int32
	id    uint32
}

func cmpRepairSeed(a, b repairSeed) int {
	if c := cmp.Compare(a.level, b.level); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// probeTag is the probe exchange's message tag: above every hopTag (repair
// levels stay far below 2^23 iterations) and below the parent resolution's
// parentTagBase; the per-source-GPU offset stays under GPUsPerRank.
const probeTag = 1 << 29

// RunRepair executes a corrective traversal on a pooled Session: prior is
// the exact level array of an earlier query from the same source on the
// graph epoch this delta departed from, invalid marks the vertices whose
// prior level the delta voided, and seeds are the still-valid insert
// endpoints — both exactly as delta.Affected derives them. The result is
// bit-identical (levels, and parents when collected) to Plan.Run on this
// plan, at a fraction of the simulated cost for small deltas.
func (p *Plan) RunRepair(ctx context.Context, source int64, prior []int32, invalid []bool, seeds []int64, ov Overrides) (*metrics.RunResult, error) {
	opts, err := p.effectiveOptions(ov)
	if err != nil {
		return nil, err
	}
	n := p.sg.N
	if source < 0 || source >= n {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", source, n)
	}
	if int64(len(prior)) != n {
		return nil, fmt.Errorf("core: prior levels cover %d vertices, graph has %d", len(prior), n)
	}
	if int64(len(invalid)) != n {
		return nil, fmt.Errorf("core: invalid mask covers %d vertices, graph has %d", len(invalid), n)
	}
	if prior[source] != 0 {
		return nil, fmt.Errorf("core: prior levels are not rooted at source %d", source)
	}
	if invalid[source] {
		return nil, fmt.Errorf("core: source %d is invalidated (the root can never be orphaned)", source)
	}
	for _, v := range seeds {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("core: repair seed %d out of range [0,%d)", v, n)
		}
		if invalid[v] || prior[v] < 0 {
			return nil, fmt.Errorf("core: repair seed %d is not a still-valid vertex of the prior result", v)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := p.acquire(opts)
	defer p.release(s)
	s.reset()
	return s.traverse(ctx, source, func(rank int, comm *mpi.Comm) {
		s.repairRank(ctx, rank, comm, source, prior, invalid, seeds)
	})
}

// repairPreload maps the prior outcome onto this epoch's layout: still-valid
// vertices keep their prior level (by global id, so a delegate-set shift
// between epochs lands every level in the right array), invalidated ones
// stay at reset's -1. Delegates' normal home slots stay -1 exactly as the
// plain BFS leaves them — a delegate's level lives only in the replicated
// delegateLevel array (its adjacency is dd/dn, so a level in the normal slot
// would claim a vertex the nn/nd machinery can never explain).
func (e *Session) repairPreload(myGPUs []*gpuState, prior []int32, invalid []bool) {
	sep := e.sg.Sep
	for _, gs := range myGPUs {
		pg := gs.pg
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			v := e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			if !invalid[v] && !sep.IsDelegate(v) {
				gs.levels[slot] = prior[v]
			}
		}
		for di, v := range e.sg.Sep.DelegateGlobal {
			if !invalid[v] {
				gs.delegateLevel[di] = prior[v]
			}
		}
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
func (e *Session) repairProbe(rank int, comm *mpi.Comm, myGPUs []*gpuState, sc *rankScratch, prior []int32, invalid []bool, seeds []int64) (comp float64, bytes int64) {
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
						gs.repSeeds = append(gs.repSeeds, repairSeed{level: lvl, id: local})
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
					gs.repSeeds = append(gs.repSeeds, repairSeed{level: lvl, id: lv})
				}
			}
		}
		if edges+rows > 0 {
			if c := e.charge(gs.dev, simgpu.KernelCost{Edges: edges, Vertices: rows, Strategy: simgpu.TWBDynamic}); c > comp {
				comp = c
			}
		}
	}
	// Caller-provided insert seeds: delegates fold into the replicated mask
	// (every rank sets the identical bits), normals route to their owner GPU.
	for _, v := range seeds {
		if sep.IsDelegate(v) {
			sc.rankMask.Set(int64(sep.DelegateID[v]))
			continue
		}
		if g := e.cfg.OwnerGPU(v); g >= rank*pgpu && g < (rank+1)*pgpu {
			e.gpus[g].repSeeds = append(e.gpus[g].repSeeds,
				repairSeed{level: prior[v], id: e.cfg.LocalID(v)})
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
					gs.repSeeds = append(gs.repSeeds, repairSeed{level: lvl, id: id})
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
				gs.repSeeds = append(gs.repSeeds, repairSeed{level: lvl, id: id})
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
func (e *Session) repairRank(ctx context.Context, rank int, comm *mpi.Comm, source int64, prior []int32, invalid []bool, seeds []int64) {
	myGPUs := e.rankGPUs(rank)
	sc := e.scratch[rank]

	e.repairPreload(myGPUs, prior, invalid)
	probeComp, probeBytes := e.repairProbe(rank, comm, myGPUs, sc, prior, invalid, seeds)

	// Sorted, deduplicated injection schedules. The delegate schedule is
	// built from the replicated seed mask and levels, so it is identical on
	// every rank without further communication.
	for _, gs := range myGPUs {
		slices.SortFunc(gs.repSeeds, cmpRepairSeed)
		gs.repSeeds = slices.Compact(gs.repSeeds)
	}
	dl := myGPUs[0].delegateLevel
	sc.seedMask.ForEach(func(di int64) {
		sc.dSeeds = append(sc.dSeeds, repairSeed{level: dl[di], id: uint32(di)})
	})
	slices.SortFunc(sc.dSeeds, cmpRepairSeed)

	// Global seed-level bounds (one min-allreduce carries both via negation)
	// and per-level global seed counts — the wave's iteration range and the
	// policy's frontier-size inputs.
	lo, hi := int64(math.MaxInt64), int64(-1)
	note := func(l int32) {
		if int64(l) < lo {
			lo = int64(l)
		}
		if int64(l) > hi {
			hi = int64(l)
		}
	}
	for _, gs := range myGPUs {
		for _, s := range gs.repSeeds {
			note(s.level)
		}
	}
	for _, s := range sc.dSeeds {
		note(s.level)
	}
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
				nCounts[s.level]++
			}
		}
		comm.AllreduceSum(nCounts)
		for _, s := range sc.dSeeds {
			dCounts[s.level]++
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
		// exact outcome (invalidated vertices, if any, are unreachable now).
		if e.collects() {
			e.finishQuery(rank, comm, source)
		}
		return
	}

	e.runWave(ctx, rank, comm, source, wave{
		schedule: schedule{first: int32(lo), lastSeed: int32(hi), nSeeds: nCounts, dSeeds: dCounts},
		kernels:  (*Session).repairKernels, apply: repairApplyIDs,
	})
}

// injectSeeds moves the seeds scheduled at level iter into the frontier. The
// guard (level still equals the stored level) drops seeds the wave already
// improved past — those entered the frontier at their better level. Delegate
// levels are replicated, so the guard decides identically on every GPU and
// the frontier masks stay globally consistent.
func (e *Session) injectSeeds(myGPUs []*gpuState, sc *rankScratch, iter int32) {
	for sc.dCursor < len(sc.dSeeds) && sc.dSeeds[sc.dCursor].level == iter {
		di := int64(sc.dSeeds[sc.dCursor].id)
		for _, gs := range myGPUs {
			if gs.delegateLevel[di] == iter {
				gs.frontDelegate(di)
			}
		}
		sc.dCursor++
	}
	for _, gs := range myGPUs {
		for gs.repCursor < len(gs.repSeeds) && gs.repSeeds[gs.repCursor].level == iter {
			s := gs.repSeeds[gs.repCursor]
			if gs.levels[s.id] == iter {
				gs.inFront = append(gs.inFront, s.id)
			}
			gs.repCursor++
		}
	}
}

// repairDiscover sets a local normal vertex's improved (or re-derived) level
// and queues it for the next wave front. Unlike discover it keeps no
// nd-source bookkeeping — the repair wave never switches direction.
func (gs *gpuState) repairDiscover(local uint32, depth int32) {
	gs.levels[local] = depth
	gs.outFront = append(gs.outFront, local)
}

// repairApplyIDs is applyIDs under the strict-improvement condition: a
// received id claims level depth, and the owner accepts exactly when that
// strictly beats (or first sets) its current level. Values set by the wave
// are final — every later offer is deeper — so re-visits are impossible.
func repairApplyIDs(gs *gpuState, ids []uint32, depth int32) {
	for _, id := range ids {
		if l := gs.levels[id]; l == -1 || l > depth {
			gs.repairDiscover(id, depth)
		}
	}
}

// repairKernels is the repair's kernel set: on each of the rank's GPUs, the
// shared previsit (queues and workloads from the frontier masks) followed by
// the four forward repair kernels. No direction decision — the improvement
// wave has no backward formulation, so the paper's DO machinery stays off.
func (e *Session) repairKernels(myGPUs []*gpuState, iter int32) {
	for _, gs := range myGPUs {
		pv := e.previsit(gs)
		e.repairKernelDD(gs, pv, iter)
		e.repairKernelND(gs, pv, iter)
		e.repairKernelDN(gs, pv, iter)
		e.repairKernelNN(gs, pv)
	}
}

// repairKernelDD: delegate→delegate edges propose improvements into the
// candidate mask, testing the replicated delegate levels; the post-reduction
// commit (run.go) takes every proposed bit.
func (e *Session) repairKernelDD(gs *gpuState, pv previsitOut, iter int32) {
	var edges int64
	strategy := simgpu.MergePath
	if e.opts.ForceTWBForDD {
		strategy = simgpu.TWBDynamic
	}
	for _, u := range pv.qDD {
		for _, dv := range gs.pg.DD.Neighbors(u) {
			edges++
			if l := gs.delegateLevel[dv]; l == -1 || l > iter+1 {
				gs.propose(int64(dv))
			}
		}
	}
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: int64(len(pv.qDD)), Strategy: strategy,
		Skew: rowSkew(pv.maxDD, pv.fvDD, int64(len(pv.qDD))),
	})
}

// repairKernelND: normal→delegate edges propose improvements into the
// candidate mask.
func (e *Session) repairKernelND(gs *gpuState, pv previsitOut, iter int32) {
	var edges int64
	for _, u := range gs.inFront {
		for _, dv := range gs.pg.ND.Neighbors(int64(u)) {
			edges++
			if l := gs.delegateLevel[dv]; l == -1 || l > iter+1 {
				gs.propose(int64(dv))
			}
		}
	}
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: int64(len(gs.inFront)), Strategy: simgpu.TWBDynamic,
		Skew: rowSkew(pv.maxND, pv.fvND, int64(len(gs.inFront))),
	})
}

// repairKernelDN: delegate→normal edges improve owned normal vertices
// directly.
func (e *Session) repairKernelDN(gs *gpuState, pv previsitOut, iter int32) {
	var edges int64
	for _, u := range pv.qDN {
		for _, lv := range gs.pg.DN.Neighbors(u) {
			edges++
			if l := gs.levels[lv]; l == -1 || l > iter+1 {
				gs.repairDiscover(lv, iter+1)
			}
		}
	}
	gs.it.edgesScanned += edges
	gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: int64(len(pv.qDN)), Strategy: simgpu.TWBDynamic,
		Skew: rowSkew(pv.maxDN, pv.fvDN, int64(len(pv.qDN))),
	})
}

// repairKernelNN: normal→normal edges improve same-GPU destinations directly
// and bin every remote destination — like the plain kernel, the sender cannot
// see remote levels, so the receiver applies the improvement condition
// (repairApplyIDs).
func (e *Session) repairKernelNN(gs *gpuState, pv previsitOut) {
	var edges int64
	p64 := int64(e.p)
	self := gs.pg.GPU
	for _, u := range gs.inFront {
		for _, v := range gs.pg.NN.Neighbors(int64(u)) {
			edges++
			owner := e.cfg.OwnerGPU(v)
			local := uint32(v / p64)
			if owner == self {
				if l := gs.levels[local]; l == -1 || l > gs.levels[u]+1 {
					gs.repairDiscover(local, gs.levels[u]+1)
				}
			} else {
				gs.bin(owner, local)
			}
		}
	}
	gs.it.edgesScanned += edges
	skew := rowSkew(pv.maxNN, pv.fvNN, int64(len(gs.inFront)))
	gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: int64(len(gs.inFront)), Strategy: simgpu.TWBDynamic, Skew: skew,
	})
	if binned := gs.it.binned; binned > 0 {
		gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
			Vertices: binned, Strategy: simgpu.TWBDynamic,
		})
	}
}
