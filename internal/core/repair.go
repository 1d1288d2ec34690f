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
//     the invalidated vertices' adjacency, with one packed exchange for
//     remote nn probes and one mask allreduce for delegate seeds.
//
//   - Wave: a level-synchronous forward traversal through the existing tuned
//     exchange stack (policy, wire codec, butterfly/all-pairs, radix apply).
//     Iterations ascend from the minimum seed level; seeds inject when the
//     wave reaches their level; the visit condition everywhere is strict
//     improvement (level == -1 || level > iter+1), so inserts can lower
//     still-valid vertices and invalidated ones re-derive at their exact new
//     level. A vertex set at iteration ℓ holds its final level: all later
//     offers are ≥ ℓ+2, so the monotone wave terminates and duplicates are
//     structurally impossible.
//
// The repaired levels equal a full BFS on the new epoch bit-for-bit, and
// because the canonical parent resolution (parents.go) is a pure function of
// levels, rerunning it afterwards yields the bit-identical tree too —
// repair_test.go asserts both across scales, rank counts, exchange
// strategies and insert/delete/mixed deltas.
//
// Timing: the probe charges its scan compute and one point-to-point round;
// every wave iteration charges exactly like a plain BFS iteration (same vec
// and sums layout as run.go), so repair-vs-recompute simulated seconds are
// directly comparable. The post-wave parent resolution stays excluded from
// simulated time, matching the paper's distance-only reporting.

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/faults"
	"gcbfs/internal/frontier"
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
	return s.runRepair(ctx, source, prior, invalid, seeds)
}

// runRepair executes one corrective traversal on this (already configured and
// exclusive) session, mirroring Session.run's structure.
func (e *Session) runRepair(ctx context.Context, source int64, prior []int32, invalid []bool, seeds []int64) (*metrics.RunResult, error) {
	e.reset()
	e.out = newTreeOut(&e.opts, e.sg.N)

	prank := e.shape.Ranks()
	world := e.acquireWorld()
	rec := &recorder{}
	pol := e.newExchangePolicy()
	rec.exchange.Strategy = e.opts.Exchange.String()
	var wg sync.WaitGroup
	for r := 0; r < prank; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer containRank(world, rank)
			e.runRepairRank(ctx, rank, world.Rank(rank), rec, pol, source, prior, invalid, seeds)
		}(r)
	}
	wg.Wait()

	if err := world.Aborted(); err != nil {
		e.poisoned = true
		return nil, err
	}
	if rec.cancelled {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}

	return e.result(source, rec), nil
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
			if c := e.charge(gs, simgpu.KernelCost{Edges: edges, Vertices: rows, Strategy: simgpu.TWBDynamic}); c > comp {
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

	// One packed exchange resolves the remote nn probes: the owner checks its
	// preloaded levels and keeps the still-valid targets as seeds.
	arrivals := sc.resetArrivals()
	for dst := 0; dst < prank; dst++ {
		if dst == rank {
			continue
		}
		for k, gs := range myGPUs {
			payload := gs.bins.PackRank(dst, pgpu)
			bytes += int64(len(payload)) - 4*int64(pgpu)
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
			if err := frontier.UnpackRankInto(buf, arrivals); err != nil {
				panic(corruptErr("core: corrupt probe payload", err))
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

// runRepairRank is the per-rank corrective-wave loop. It mirrors runRank's
// BSP structure — policy decision, local kernels, delegate mask reduction,
// normal exchange, timing and sums assembly all use the identical layout —
// with three differences: the probe-and-seed prologue, the strict-improvement
// visit condition (repair kernels, repairApplyIDs, the filtered delegate
// commit), and the termination flag keeping the loop alive through pending
// seed levels.
func (e *Session) runRepairRank(ctx context.Context, rank int, comm *mpi.Comm, rec *recorder, pol *exchangePolicy, source int64, prior []int32, invalid []bool, seeds []int64) {
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	myGPUs := e.gpus[rank*pgpu : (rank+1)*pgpu]
	sc := e.scratch[rank]
	rankMask := sc.rankMask // fully overwritten by CopyFrom each iteration
	maskBytes := rankMask.ByteSize()
	rx := sc.rx.bind(e, rank, sc)
	cancelled := false

	for _, gs := range myGPUs {
		gs.repSeeds, gs.repCursor = gs.repSeeds[:0], 0
	}
	e.repairPreload(myGPUs, prior, invalid)
	probeComp, probeBytes := e.repairProbe(rank, comm, myGPUs, sc, prior, invalid, seeds)

	// Sorted, deduplicated injection schedules. The delegate schedule is
	// built from the replicated seed mask and levels, so it is identical on
	// every rank without further communication.
	for _, gs := range myGPUs {
		slices.SortFunc(gs.repSeeds, cmpRepairSeed)
		gs.repSeeds = slices.Compact(gs.repSeeds)
	}
	sc.dSeeds, sc.dCursor = sc.dSeeds[:0], 0
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
		rec.simSeconds += e.iterElapsed(parts)
		rec.parts.Add(parts)
	}

	if lo > hi {
		// No seeds anywhere: the prior levels already are the new epoch's
		// exact outcome (invalidated vertices, if any, are unreachable now).
		if e.collects() {
			e.finishQuery(rank, comm, source)
		}
		return
	}

	inputNormals, inputDelegates := nCounts[lo], dCounts[lo]
	prevNormals, prevOriginated := int64(0), int64(0)
	fb := newPolicyFeedback()
	if e.opts.Warm != nil {
		fb.seed(*e.opts.Warm)
	}

	for iter := int32(lo); ; iter++ {
		// ---- Fault injection (chaos testing): see Session.runRank.
		if in := e.opts.Inject; in != nil {
			in.Crash(rank, int(iter), faults.SiteIter)
		}
		// ---- Seed injection: schedules advance with the wave; the guard
		// (level still equals the stored level) drops seeds the wave already
		// improved past — those entered the frontier at their better level.
		// Delegate levels are replicated, so the guard decides identically on
		// every GPU and the frontier masks stay globally consistent.
		for sc.dCursor < len(sc.dSeeds) && sc.dSeeds[sc.dCursor].level == iter {
			di := int64(sc.dSeeds[sc.dCursor].id)
			for _, gs := range myGPUs {
				if gs.delegateLevel[di] == iter {
					gs.dFront.Set(di)
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

		// ---- Exchange policy (identical decision on every rank).
		strategy, predicted := pol.chooseS(inputNormals, inputDelegates, prevNormals, prevOriginated, fb, &sc.pol)
		ex := rx.get(strategy)
		// ---- Local computation: forward repair kernels (no direction
		// optimization — the improvement wave has no backward variant).
		for _, gs := range myGPUs {
			gs.it = iterWork{}
			e.repairRunKernels(gs, iter)
		}
		dir0 := myGPUs[0]

		// ---- Delegate mask reduction, exactly as run.go; the commit filters
		// the reduced candidate mask by strict improvement. Delegate levels
		// are identical on every GPU, so the filtered frontier is too.
		rankMask.CopyFrom(myGPUs[0].newMask)
		for _, gs := range myGPUs[1:] {
			rankMask.Or(gs.newMask)
		}
		anyGlobal := comm.AllreduceBoolOr(rankMask.Any())
		maskExchanged := false
		var newDelegates int64
		if anyGlobal {
			comm.AllreduceOr(rankMask.Words())
			maskExchanged = true
			for gi, gs := range myGPUs {
				gs.dFront.Reset()
				var improved int64
				rankMask.ForEach(func(di int64) {
					if l := gs.delegateLevel[di]; l == -1 || l > iter+1 {
						gs.delegateLevel[di] = iter + 1
						gs.dFront.Set(di)
						improved++
					}
				})
				gs.newMask.Reset()
				if gi == 0 {
					newDelegates = improved
				}
			}
		} else {
			for _, gs := range myGPUs {
				gs.dFront.Reset()
				gs.newMask.Reset()
			}
		}

		// ---- Delegate-aware mask encoding (identical to run.go; the wire
		// ships the candidate mask, improvement filtering is receiver-side).
		effMaskBytes := maskBytes
		var maskCodecRaw int64
		if maskExchanged && e.opts.Compression != wire.ModeOff && e.d-1 <= int64(^uint32(0)) {
			ids := sc.maskIDs[:0]
			rankMask.ForEach(func(di int64) { ids = append(ids, uint32(di)) })
			sc.maskIDs = ids
			if enc := wire.EncodedMaskBytes(ids, e.opts.Compression); enc < maskBytes {
				effMaskBytes = enc
				maskCodecRaw = 4 * int64(len(ids))
			}
		}

		// ---- Normal-vertex exchange (§V-B), shared with the plain BFS.
		var dupsRemoved int64
		if e.opts.Uniquify {
			for _, gs := range myGPUs {
				n := gs.bins.UniquifyAll()
				gs.it.dupsRemoved += n
				dupsRemoved += n
				if c := gs.bins.Count(); c > 0 {
					gs.it.normalStream += e.charge(gs, simgpu.KernelCost{
						Vertices: 2 * c, Strategy: simgpu.TWBDynamic,
					})
				}
			}
		}
		counts := ex.exchange(comm, myGPUs, iter)
		var intraBytes int64
		for _, src := range myGPUs {
			for s := 0; s < pgpu; s++ {
				dstGPU := rank*pgpu + s
				if dstGPU == src.pg.GPU {
					continue
				}
				ids := src.bins.PerGPU[dstGPU]
				intraBytes += 4 * int64(len(ids))
				repairApplyIDs(e.gpus[dstGPU], ids, iter+1)
			}
		}
		var applied int64
		for s, ids := range counts.arrivals {
			applied += int64(len(ids))
			sc.applySortedWith(myGPUs[s], ids, iter+1, repairApplyIDs)
		}
		sentBytes, rawSentBytes := counts.sent, counts.sentRaw
		if applied+intraBytes/4 > 0 {
			myGPUs[0].it.normalStream += e.charge(myGPUs[0], simgpu.KernelCost{
				Vertices: applied + intraBytes/4, Strategy: simgpu.TWBDynamic,
			})
		}
		for _, gs := range myGPUs {
			gs.bins.Reset()
		}

		// ---- Timing assembly (identical layout to run.go).
		var comp float64
		for _, gs := range myGPUs {
			if c := streamCombine(gs.it.delegateStream, gs.it.normalStream); c > comp {
				comp = c
			}
		}
		// Injected stall: timing skew only, results stay bit-identical.
		if in := e.opts.Inject; in != nil {
			comp += in.Stall(rank, int(iter), faults.SiteIter)
		}
		aSent, aRecv, aIntra := e.ampBytes(sentBytes), e.ampBytes(counts.recv), e.ampBytes(intraBytes)
		aMask := e.ampBytes(maskBytes)
		aMaskWire := e.ampBytes(effMaskBytes)
		hier := e.hierExchange()
		var localComm float64
		if maskExchanged {
			localComm += e.opts.Net.LocalReduce(aMask, pgpu)
			localComm += e.opts.Net.LocalBroadcast(aMask, pgpu)
		}
		if hier {
			localComm += e.opts.Net.Staging(aIntra)
		} else {
			if e.opts.LocalAll2All && aSent > 0 && pgpu > 1 {
				localComm += e.opts.Net.LocalExchange(aSent*int64(pgpu-1)/int64(pgpu), pgpu)
			}
			localComm += e.opts.Net.Staging(aSent) + e.opts.Net.Staging(aRecv) + e.opts.Net.Staging(aIntra)
		}
		var remoteDelegate float64
		if maskExchanged {
			remoteDelegate = e.opts.Net.Allreduce(aMaskWire, prank, e.opts.BlockingReduce)
		}
		maskCodecSecs := e.opts.GPU.CodecTime(e.ampBytes(maskCodecRaw))
		nh := len(counts.hopBytes)
		vec := sc.vec[:0]
		vec = append(vec, comp, localComm, remoteDelegate, maskCodecSecs)
		for _, hb := range counts.hopBytes {
			vec = append(vec, float64(e.ampBytes(hb)))
		}
		for _, cr := range counts.hopCodecRaw {
			vec = append(vec, float64(e.ampBytes(cr)))
		}
		for _, rb := range counts.hopRecvBytes {
			vec = append(vec, float64(e.ampBytes(rb)))
		}
		vec = append(vec, float64(e.ampBytes(counts.preCodecRaw)))
		var aggBytes int64
		if hier {
			aggBytes = e.ampBytes(aggregationBytesFor(&e.opts, e.shape, counts.sentRaw-counts.forwarded))
		}
		vec = append(vec, float64(aggBytes))
		vec = append(vec, float64(e.ampBytes(counts.sentRaw-counts.forwarded)))
		sc.vec = vec
		sc.fbits = maxFloatsAllreduce(comm, vec, sc.fbits)
		redWire := grownInt64(sc.redWire, nh)
		sc.redWire = redWire
		redCodec := grownInt64(sc.redCodec, nh)
		sc.redCodec = redCodec
		redRecv := grownInt64(sc.redRecv, nh)
		sc.redRecv = redRecv
		for i := 0; i < nh; i++ {
			redWire[i] = int64(vec[4+i])
			redCodec[i] = int64(vec[4+nh+i])
			redRecv[i] = int64(vec[4+2*nh+i])
		}
		redPre := int64(vec[4+3*nh])
		redMaxOriginated := vec[6+3*nh]
		var maskWire int64
		if maskExchanged {
			maskWire = aMaskWire
		}
		rt := ex.remoteTime(remoteVolumes{
			hopBytes:    redWire,
			hopCodecRaw: redCodec,
			hopRecv:     redRecv,
			preCodecRaw: redPre,
			aggBytes:    int64(vec[5+3*nh]),
			maskWire:    maskWire,
			maskSecs:    vec[2],
		})
		remoteNormal := rt.seconds + vec[3]
		maxMsg := rt.maxMsg
		parts := metrics.Breakdown{
			Computation:    vec[0],
			LocalComm:      vec[1],
			RemoteNormal:   remoteNormal,
			RemoteDelegate: rt.maskSecs,
		}
		elapsed := e.iterElapsed(parts)

		// ---- Global sums: work stats, termination flag (kept alive through
		// pending seed levels) and the context observation.
		var nextNormals, edges int64
		for _, gs := range myGPUs {
			nextNormals += int64(len(gs.outFront))
			edges += gs.it.edgesScanned
		}
		flag := int64(0)
		if nextNormals > 0 || newDelegates > 0 || int64(iter)+1 <= hi {
			flag = 1
		}
		ctxDead := int64(0)
		if ctx.Err() != nil {
			ctxDead = 1
		}
		sums := append(sc.sums[:0], edges, sentBytes, nextNormals, dupsRemoved, flag,
			rawSentBytes, counts.scheme[wire.SchemeRaw], counts.scheme[wire.SchemeDelta], counts.scheme[wire.SchemeBitmap],
			counts.messages, counts.forwarded, counts.memoHits, counts.codecRaw+maskCodecRaw, ctxDead)
		sc.sums = sums
		comm.AllreduceSum(sums)

		if rank == 0 {
			rec.iterations = append(rec.iterations, metrics.IterationStats{
				Iteration:         int(iter),
				FrontierNormals:   inputNormals,
				FrontierDelegates: inputDelegates,
				DirDD:             dir0.dirDD,
				DirDN:             dir0.dirDN,
				DirND:             dir0.dirND,
				Exchange:          strategy.String(),
				EdgesScanned:      sums[0],
				BytesNormal:       sums[1],
				BytesNormalRaw:    sums[5],
				BytesDelegate:     boolToBytes(maskExchanged, effMaskBytes),
				Elapsed:           elapsed,
				PredictedRemote:   predicted,
				CodecHidden:       rt.hiddenCodec,
				CodecExposed:      rt.codecSeconds - rt.hiddenCodec + vec[3],
				NVLinkHidden:      rt.hiddenNVLink,
				NVLinkExposed:     rt.nvlinkSeconds - rt.hiddenNVLink,
				Parts:             parts,
			})
			rec.edgesScanned += sums[0]
			rec.dupsRemoved += sums[3]
			rec.simSeconds += elapsed
			rec.parts.Add(parts)
			rec.wire.CompressedBytes += sums[1]
			rec.wire.RawBytes += sums[5]
			rec.wire.SchemeRaw += sums[6]
			rec.wire.SchemeDelta += sums[7]
			rec.wire.SchemeBitmap += sums[8]
			rec.exchange.Messages += sums[9]
			rec.exchange.ForwardedBytes += sums[10]
			rec.wire.MemoHits += sums[11]
			rec.wire.CodecBytes += sums[12]
			rec.wire.CodecSeconds += rt.codecSeconds + vec[3]
			rec.exchange.HiddenCodecSeconds += rt.hiddenCodec
			rec.exchange.PipelineStalls += rt.stalls
			rec.exchange.NVLinkSeconds += rt.nvlinkSeconds
			rec.exchange.HiddenNVLinkSeconds += rt.hiddenNVLink
			rec.exchange.MaskFoldSavedSeconds += vec[2] - rt.maskSecs
			if maskExchanged && e.opts.Compression != wire.ModeOff {
				rec.wire.MaskRawBytes += maskBytes
				rec.wire.MaskWireBytes += effMaskBytes
			}
			rec.exchange.PredictedSeconds += predicted
			if strategy == ExchangeButterfly {
				rec.exchange.ButterflyIterations++
			} else {
				rec.exchange.AllPairsIterations++
			}
			if hr := ex.rounds(); hr > rec.exchange.HopsPerIteration {
				rec.exchange.HopsPerIteration = hr
			}
			if maxMsg > rec.exchange.MaxMessageBytes {
				rec.exchange.MaxMessageBytes = maxMsg
			}
			if maskExchanged {
				rec.delegateComms++
			}
		}
		prevNormals, prevOriginated = inputNormals, sums[5]-sums[10]
		inputNormals, inputDelegates = sums[2], newDelegates
		// Seeds injecting at the next level are part of its known input
		// frontier — fold their globally reduced counts into the policy's
		// volume signal.
		if next := int64(iter) + 1; next <= hi {
			inputNormals += nCounts[next]
			inputDelegates += dCounts[next]
		}
		skewMax, skewMean, wireRatio := 0.0, 0.0, 0.0
		if originated := sums[5] - sums[10]; originated >= int64(prank)*skewGateRawBytes {
			skewMax = redMaxOriginated
			skewMean = float64(e.ampBytes(originated)) / float64(prank)
			wireRatio = float64(sums[1]) / float64(sums[5])
		}
		fb.observe(strategy, predicted/fb.calib[strategy], rt.seconds, skewMax, skewMean, wireRatio)

		for _, gs := range myGPUs {
			gs.inFront, gs.outFront = gs.outFront, gs.inFront[:0]
		}
		if sums[13] > 0 {
			cancelled = true
			if rank == 0 {
				rec.cancelled = true
			}
			break
		}
		if sums[4] == 0 {
			break
		}
	}

	if rank == 0 {
		if rec.exchange.AllPairsIterations > 0 {
			rec.exchange.CalibrationAllPairs = fb.calib[ExchangeAllPairs]
		}
		if rec.exchange.ButterflyIterations > 0 {
			rec.exchange.CalibrationButterfly = fb.calib[ExchangeButterfly]
		}
		rec.exchange.SkewEWMA = fb.skew
		rec.exchange.WireRatioEWMA = fb.wireRatio
	}

	if e.collects() && !cancelled {
		e.finishQuery(rank, comm, source)
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

// repairRunKernels executes one wave iteration's local computation: the
// shared previsit (queues and workloads from the frontier masks) followed by
// the four forward repair kernels. No direction decision — the improvement
// wave has no backward formulation, so the paper's DO machinery stays off.
func (e *Session) repairRunKernels(gs *gpuState, iter int32) {
	pv := e.previsit(gs)
	e.repairKernelDD(gs, pv, iter)
	e.repairKernelND(gs, pv, iter)
	e.repairKernelDN(gs, pv, iter)
	e.repairKernelNN(gs, pv)
}

// repairKernelDD: delegate→delegate edges propose improvements into the
// candidate mask; the post-reduction commit applies the strict-improvement
// filter against the replicated delegate levels.
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
				gs.newMask.Set(int64(dv))
			}
		}
	}
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs, simgpu.KernelCost{
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
				gs.newMask.Set(int64(dv))
			}
		}
	}
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs, simgpu.KernelCost{
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
	gs.it.normalStream += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: int64(len(pv.qDN)), Strategy: simgpu.TWBDynamic,
		Skew: rowSkew(pv.maxDN, pv.fvDN, int64(len(pv.qDN))),
	})
}

// repairKernelNN: normal→normal edges improve same-GPU destinations directly
// and bin every remote destination — like the plain kernel, the sender cannot
// see remote levels, so the receiver applies the improvement condition
// (repairApplyIDs).
func (e *Session) repairKernelNN(gs *gpuState, pv previsitOut) {
	var edges, binned int64
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
				gs.bins.Add(owner, local)
				binned++
			}
		}
	}
	gs.it.edgesScanned += edges
	skew := rowSkew(pv.maxNN, pv.fvNN, int64(len(gs.inFront)))
	gs.it.normalStream += e.charge(gs, simgpu.KernelCost{
		Edges: edges, Vertices: int64(len(gs.inFront)), Strategy: simgpu.TWBDynamic, Skew: skew,
	})
	if binned > 0 {
		gs.it.normalStream += e.charge(gs, simgpu.KernelCost{
			Vertices: binned, Strategy: simgpu.TWBDynamic,
		})
	}
}
