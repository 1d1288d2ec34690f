package core

// Multi-source shared sweep (MS-BFS): one BSP traversal answers K BFS
// queries at once. Per-vertex visited state widens from a bit to a K-bit
// query-set mask (bitmask.Matrix, w = ⌈K/64⌉ words per vertex), frontier
// records carry (vertex, query-set) payloads — each slot's ids with a w-word
// lane-set column beside them, mask sections behind the id blocks on the wire
// (wire/records.go) — and the delegate tier reduces a d×K mask matrix instead
// of a d-bit mask. The sweep is forward-only: hop distances are
// direction-invariant, so its levels — and the canonical parents derived
// from them (parents.go) — are bit-identical to K independent Plan.Run
// calls; what the sweep buys is amortization, since a vertex expanded for
// many queries in one iteration scans its adjacency once, and records
// destined for the same vertex merge into one wire record with OR-ed masks.
//
// A sweep is a payload of the superstep loop, not a loop of its own: this
// file is its per-GPU state, its kernels and its lanes implementation
// (sweepLanes); runEnv.drive (run.go) runs it, so the sweep's supersteps,
// fault sites, timing assembly and cancellation are the single-source
// traversal's, line for line — and so is its exchange: the records ride the
// same all-pairs and butterfly exchangers (exchange.go) under the same
// Options.Exchange, the hybrid policy and the retry's degraded profile
// included; the lanes only stage them (sweepLanes.stage) and apply what
// arrives.
//
// The traversal's frontier is a history, not a pair of buffers: every level's
// (vertex, query-set) rows are appended to a laneHist and stay there. The
// newest level is the superstep's input frontier; the whole of it, once the
// loop ends, is all K queries' levels — no per-query level array is ever
// written — and sweep_tree.go resolves the K trees from it in one pass, where
// a loop over the single-tree resolver (parents.go) used to run K times.
//
// The simulated cost model charges the widened work honestly: kernels pay
// edges×w word operations, the delegate allreduce moves d×w×8 bytes, and
// the exchange ships the record payloads under the single-source run's
// charging rules, 4+8w fixed-width bytes per record. Per-query figures are the
// sweep totals divided by K — GTEPS becomes the amortized per-query rate the
// cmp5 ablation compares against independent RunBatch.

import (
	"context"
	"fmt"
	"sync/atomic"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/frontier"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/wire"
)

// MaxSweepWidth bounds the number of queries one sweep may carry. Beyond ~1k
// the mask matrices stop fitting the simulated devices' memory model and the
// per-word fold loses its amortization edge.
const MaxSweepWidth = 1024

// RunSweep answers one BFS per source in a single shared BSP traversal. The
// per-query levels and parents are bit-identical to Run on the same source;
// the per-query counters and simulated timing are the sweep totals divided
// evenly by the query count (integer division for byte, edge, message and
// scheme counters — the deterministic convention). The tree resolution's replay is accounted the
// same way: ParentPairs and Wire.PairRawBytes are each lane's own — exactly
// what Run reports for that source — and Wire.PairWireBytes is the one shared
// replay's encoded bytes over the query count. Duplicate sources are allowed
// and simply occupy two query lanes; Service-level admission dedups them
// beforehand.
//
// ctx is honored at iteration boundaries exactly as in Run: all ranks fold
// the context observation into the termination reduction and abort on the
// same iteration, and RunSweep returns ctx.Err().
func (p *Plan) RunSweep(ctx context.Context, sources []int64, ov Overrides) ([]*metrics.RunResult, error) {
	opts, err := p.effectiveOptions(ov)
	if err != nil {
		return nil, err
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: sweep needs at least one source")
	}
	if len(sources) > MaxSweepWidth {
		return nil, fmt.Errorf("core: sweep width %d exceeds %d", len(sources), MaxSweepWidth)
	}
	for _, src := range sources {
		if src < 0 || src >= p.sg.N {
			return nil, fmt.Errorf("core: source %d out of range [0,%d)", src, p.sg.N)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e := p.newSweepSession(opts, sources)
	return e.run(ctx)
}

// sweepGPU is one GPU's state for a sweep: the mask-matrix analogues of
// gpuState's visited and output-frontier structures, and the frontier history
// that stands in for everything else — the input frontier of iteration L is
// the history's level L, and the per-query hop distances are never written
// down during the traversal at all: "lane q holds vertex v at level L" is the
// bit the history already keeps (sweep_tree.go turns it into results).
type sweepGPU struct {
	pg  *partition.GPUGraph
	dev *simgpu.Device

	vis, nxt *bitmask.Matrix // NumLocal × K: visited, and this iteration's discoveries
	newD     *bitmask.Matrix // d × K delegate proposal
	hist     laneHist        // normal frontier history, one level per iteration

	// The tree resolution's (sweep_tree.go): the history regrouped by slot,
	// and the candidates, slot·K + lane.
	ix   laneIndex
	cand []uint32

	outIDs []uint32 // slots discovered this iteration (set rows of nxt)
	bins   *frontier.RecordBins

	it sweepIterWork
}

// sweepIterWork accumulates one iteration's counted work on one GPU.
type sweepIterWork struct {
	delegateStream float64
	normalStream   float64
	logical        int64 // per-query logical edges: Σ popcount(row)·degree
}

// sweepScratch is one rank's sweep state: the delegate tier, one
// replica per rank that its GPUs share — as a single-source traversal's GPUs
// share rankScratch.dt — and the rank's reusable buffers.
type sweepScratch struct {
	visD   *bitmask.Matrix // d × K visited delegates
	histD  laneHist        // delegate frontier history, identical on every rank
	rankD  []uint64        // d×w delegate-mask reduce buffer
	addRow []uint64        // w-word newly-discovered scratch row

	// order holds the stage's (id, bin position) sort keys, orderBuf the
	// radix sort's scatter buffer.
	order, orderBuf []frontier.Pair

	tree treeScratch

	// lanes is the rank's side of the sweep; exchangeScratch its exchange
	// and loopScratch the superstep loop's own buffers.
	lanes sweepLanes
	exchangeScratch
	loopScratch
}

// sweepSession is the mutable state of one in-flight sweep. Sweeps are built
// fresh per RunSweep and left to the collector, not pooled like Sessions: a
// retained 64-lane session would hold tens of MB against a live heap of
// ~12 MiB (the benchmark's heap_mb). What makes that affordable is that
// everything here, and everything the resolution adds, is valid as zeroed —
// no array is filled before use, where the K×n and K×d level arrays this
// design replaced were 76 MB of -1. A K = 64 sweep of RMAT 16 on 16 GPUs
// allocates 120.5 MB (BenchmarkSweepResolve reports it; 130.2 MB while the
// delegate candidates were widened to int64 stripe by stripe for their
// reduction, 147 MB with the level arrays): 50 MB are the K results, 46 MB
// the resolution's (vertex, lane) candidates on all ranks — 17 MB the
// normals', 29 MB the delegates', d·K on every rank — and the traversal
// itself — matrices and histories — about 15 MB.
type sweepSession struct {
	runEnv
	k, w    int
	sources []int64
	gpus    []*sweepGPU
	scratch []*sweepScratch
	world   *mpi.World

	// outs[k] are the global result arrays (nil when nothing is collected).
	// They come zeroed and the gather writes every entry of them exactly once,
	// each rank its own GPUs' vertices and its stripe of the delegates.
	outs []treeOut

	// Per-query parent-resolution traffic: pairs replayed to another GPU and,
	// of those, to another rank; and the shared replay's encoded bytes.
	pairCount, pairRemote []atomic.Int64
	pairWire              atomic.Int64
}

func (p *Plan) newSweepSession(opts Options, sources []int64) *sweepSession {
	k := len(sources)
	w := (k + 63) / 64
	e := &sweepSession{
		runEnv:  p.runOn(opts),
		k:       k,
		w:       w,
		sources: sources,
		world:   mpi.NewWorld(p.shape.Ranks()),
	}
	e.gpus = make([]*sweepGPU, e.p)
	for i, pg := range p.sg.GPUs {
		e.gpus[i] = &sweepGPU{
			pg:   pg,
			dev:  simgpu.NewDevice(opts.GPU, i),
			vis:  bitmask.NewMatrix(pg.NumLocal, k),
			nxt:  bitmask.NewMatrix(pg.NumLocal, k),
			newD: bitmask.NewMatrix(e.d, k),
			hist: newLaneHist(w, pg.NumLocal),
			bins: frontier.NewRecordBins(e.p, w),
		}
	}
	prank := p.shape.Ranks()
	pgpu := p.shape.GPUsPerRank
	e.scratch = make([]*sweepScratch, prank)
	for r := range e.scratch {
		sc := &sweepScratch{
			visD:            bitmask.NewMatrix(e.d, k),
			histD:           newLaneHist(w, e.d),
			rankD:           make([]uint64, e.d*int64(w)),
			addRow:          make([]uint64, w),
			exchangeScratch: newExchangeScratch(prank, pgpu, w),
		}
		sc.lanes = sweepLanes{e: e, rank: r, gpus: e.gpus[r*pgpu : (r+1)*pgpu], sc: sc}
		sc.rx.bind(&e.runEnv, r, &sc.exchangeScratch, &sc.lanes)
		e.scratch[r] = sc
	}
	if opts.CollectParents {
		e.pairCount = make([]atomic.Int64, k)
		e.pairRemote = make([]atomic.Int64, k)
	}
	if opts.CollectLevels || opts.CollectParents {
		e.outs = e.newOuts()
	}
	return e
}

// newOuts allocates the K result arrays; the gather writes every entry.
func (e *sweepSession) newOuts() []treeOut {
	outs := make([]treeOut, e.k)
	for q := range outs {
		outs[q] = newTreeOut(&e.opts, e.sg.N)
	}
	return outs
}

// seed plants each query's source in its lane as level 0 of the frontier
// history — through the traversal's own commit and rotate, so two lanes that
// share a source share one history row — and returns the sweep's seed
// schedule: its sources, all at level 0.
func (e *sweepSession) seed() schedule {
	sch := schedule{nSeeds: []int64{0}, dSeeds: []int64{0}}
	for q, src := range e.sources {
		if e.sg.Sep.IsDelegate(src) {
			sch.dSeeds[0]++
			bit := int64(e.sg.Sep.DelegateID[src])*int64(e.w)*64 + int64(q)
			for _, sc := range e.scratch {
				sc.rankD[bit/64] |= 1 << (bit % 64)
			}
			continue
		}
		sch.nSeeds[0]++
		gs := e.gpus[e.cfg.OwnerGPU(src)]
		local := int64(e.cfg.LocalID(src))
		if !bitmask.RowAny(gs.nxt.Row(local)) {
			gs.outIDs = append(gs.outIDs, uint32(local))
		}
		gs.vis.Set(local, q)
		gs.nxt.Set(local, q)
	}
	for _, sc := range e.scratch {
		if sch.dSeeds[0] > 0 {
			e.commitDelegates(sc)
		}
		sc.histD.closeLevel()
		sc.lanes.rotate()
	}
	return sch
}

// discover folds newly reached query bits into a local vertex: bits not yet
// visited join the visited row and the output frontier row. The fold is
// order-independent across arrival sources — a query bit enters the output
// frontier exactly once, on the iteration it first appears, and that
// iteration is its level — which is what makes the sweep deterministic
// without the single-query engine's canonical arrival ordering.
func (e *sweepSession) discover(gs *sweepGPU, sc *sweepScratch, local uint32, mask []uint64) {
	visRow := gs.vis.Row(int64(local))
	add := sc.addRow
	if !bitmask.RowAndNotInto(add, mask, visRow) {
		return
	}
	bitmask.RowOr(visRow, add)
	nxtRow := gs.nxt.Row(int64(local))
	if !bitmask.RowAny(nxtRow) {
		gs.outIDs = append(gs.outIDs, local)
	}
	bitmask.RowOr(nxtRow, add)
}

// runKernels executes one iteration's forward kernels on one GPU. Edge work
// is charged at w word-operations per structural edge — the widened mask is
// what the SIMD lanes actually move.
func (e *sweepSession) runKernels(gs *sweepGPU, sc *sweepScratch, iter int32) {
	w := e.w
	w64 := int64(w)
	p64 := int64(e.p)
	self := gs.pg.GPU

	// Delegate previsit + dd/dn kernels over the delegate frontier, level iter
	// of the rank's history in ascending id (charged as the scan of the d×K
	// frontier matrix the device would make, the previsit analogue of the
	// delegate mask scan).
	var ddEdges, dnEdges int64
	dIDs, dRows := sc.histD.level(iter)
	dVerts := int64(len(dIDs))
	for i, id := range dIDs {
		di := int64(id)
		row := dRows[i*w : (i+1)*w]
		pop := int64(bitmask.RowCount(row))
		if deg := gs.pg.DD.Degree(di); deg > 0 {
			for _, dv := range gs.pg.DD.Neighbors(di) {
				bitmask.RowOr(gs.newD.Row(int64(dv)), row)
			}
			ddEdges += deg
			gs.it.logical += deg * pop
		}
		if deg := gs.pg.DN.Degree(di); deg > 0 {
			for _, lv := range gs.pg.DN.Neighbors(di) {
				e.discover(gs, sc, lv, row)
			}
			dnEdges += deg
			gs.it.logical += deg * pop
		}
	}
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Vertices: dVerts + e.d/64*w64, Strategy: simgpu.TWBDynamic,
	})
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: ddEdges * w64, Vertices: dVerts, Strategy: simgpu.MergePath,
	})
	gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: dnEdges * w64, Vertices: dVerts, Strategy: simgpu.TWBDynamic,
	})

	// Normal previsit + nd/nn kernels over the normal frontier, level iter of
	// the GPU's history.
	var ndEdges, nnEdges, binned int64
	nIDs, nRows := gs.hist.level(iter)
	nVerts := int64(len(nIDs))
	for i, u := range nIDs {
		row := nRows[i*w : (i+1)*w]
		pop := int64(bitmask.RowCount(row))
		if deg := gs.pg.ND.Degree(int64(u)); deg > 0 {
			for _, dv := range gs.pg.ND.Neighbors(int64(u)) {
				bitmask.RowOr(gs.newD.Row(int64(dv)), row)
			}
			ndEdges += deg
			gs.it.logical += deg * pop
		}
		if deg := gs.pg.NN.Degree(int64(u)); deg > 0 {
			for _, v := range gs.pg.NN.Neighbors(int64(u)) {
				owner := e.cfg.OwnerGPU(v)
				local := uint32(v / p64)
				if owner == self {
					e.discover(gs, sc, local, row)
				} else {
					gs.bins.Add(owner, local, row)
					binned++
				}
			}
			nnEdges += deg
			gs.it.logical += deg * pop
		}
	}
	gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
		Vertices: 2 * nVerts, Strategy: simgpu.TWBDynamic,
	})
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: ndEdges * w64, Vertices: nVerts, Strategy: simgpu.TWBDynamic,
	})
	gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: nnEdges * w64, Vertices: nVerts, Strategy: simgpu.TWBDynamic,
	})
	if binned > 0 {
		// Binning + id conversion + the w-word mask copy per record.
		gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
			Vertices: binned * w64, Strategy: simgpu.TWBDynamic,
		})
	}
}

// commitDelegates folds the reduced new-delegate matrix in sc.rankD into the
// rank's delegate state — the newly visited (delegate, query) bits become the
// open level of the delegate history, in ascending delegate id — and returns
// their number.
func (e *sweepSession) commitDelegates(sc *sweepScratch) int64 {
	w := int64(e.w)
	var committed int64
	add := sc.addRow
	for di := int64(0); di < e.d; di++ {
		visRow := sc.visD.Row(di)
		if !bitmask.RowAndNotInto(add, sc.rankD[di*w:(di+1)*w], visRow) {
			continue
		}
		bitmask.RowOr(visRow, add)
		sc.histD.add(uint32(di), add)
		committed += bitmask.RowCount(add)
	}
	return committed
}

// sweepLanes is the sweep's side of the superstep loop (lanes, run.go): a
// rank's sweepGPUs, a d×K matrix for a delegate proposal and (id, query-set)
// records for a payload. Forward-only, so no direction decision.
type sweepLanes struct {
	e    *sweepSession
	rank int
	gpus []*sweepGPU
	sc   *sweepScratch
	// staged and dups count the superstep's stage: records read from the
	// bins, and those OR-ed into an equal id's record.
	staged, dups int64
}

func (l *sweepLanes) kernels(iter int32) {
	for _, gs := range l.gpus {
		gs.it = sweepIterWork{}
		l.e.runKernels(gs, l.sc, iter)
	}
}

// proposal is the local OR to "GPU0" of the GPUs' new-delegate matrices.
func (l *sweepLanes) proposal() ([]uint64, bool) {
	rankD := l.sc.rankD
	copy(rankD, l.gpus[0].newD.Words())
	for _, gs := range l.gpus[1:] {
		bitmask.RowOr(rankD, gs.newD.Words())
	}
	return rankD, bitmask.RowAny(rankD)
}

// commit folds the reduced matrix into the rank's delegate state as level
// iter+1 of its history (empty when nothing was reduced). The matrix ships in
// its native form — there is no mask codec for d×K bits.
func (l *sweepLanes) commit(reduced bool, _ int32) (dc delegateCommit) {
	if reduced {
		dc.visits = l.e.commitDelegates(l.sc)
		dc.native = l.e.d * int64(l.e.w) * 8
		dc.wire = dc.native
	}
	l.sc.histD.closeLevel()
	for _, gs := range l.gpus {
		gs.newD.Reset()
	}
	return dc
}

func (l *sweepLanes) exchanger(strategy Exchange) exchanger { return l.sc.rx.get(strategy) }

// width, destinations and stage make the lanes the exchange's payload:
// (id, lane-set) records.
func (l *sweepLanes) width() int { return l.e.w }

func (l *sweepLanes) destinations(has []bool) {
	pgpu := l.e.shape.GPUsPerRank
	for _, gs := range l.gpus {
		for g, ids := range gs.bins.IDs {
			if len(ids) > 0 {
				has[g/pgpu] = true
			}
		}
	}
}

// stage gathers every local GPU's records bound for dst's GPUs into one
// record set per slot, sorted by vertex id, a vertex binned more than once —
// by one GPU or several — collapsed into one record with the OR of its lane
// sets. It is the sweep's uniquify in every compression mode, the record
// analogue of the single-query stage (mergeForRank) and the source of the
// sweep's wire savings beyond amortization; exchange charges it as a kernel,
// so it drops nothing the codec is charged for.
func (l *sweepLanes) stage(dst int, row *wire.Section) int64 {
	sc, w := l.sc, l.e.w
	pgpu := l.e.shape.GPUsPerRank
	for s := range row.Slots {
		dstGPU := dst*pgpu + s
		order := sc.order[:0]
		for g, gs := range l.gpus {
			for i, id := range gs.bins.IDs[dstGPU] {
				order = append(order, frontier.Pair{ID: id, Val: uint64(g)<<32 | uint64(i)})
			}
		}
		sc.order = order
		l.staged += int64(len(order))
		frontier.SortPairs(order, &sc.orderBuf)
		ids, lanes := sc.arena.Alloc(len(order)), sc.words.Alloc(len(order)*w)
		for _, rec := range order {
			lane := l.gpus[rec.Val>>32].bins.Mask(dstGPU, int(uint32(rec.Val)))
			if n := len(ids); n > 0 && ids[n-1] == rec.ID {
				bitmask.RowOr(lanes[(n-1)*w:n*w], lane)
				l.dups++
				continue
			}
			ids, lanes = append(ids, rec.ID), append(lanes, lane...)
		}
		row.Slots[s], row.Masks[s], row.Hints[s] = ids, lanes, wire.HintSet
	}
	return 0
}

// post zeroes the stage's counters, which whichever strategy stages — the
// all-pairs post or the butterfly's exchange — fills, and posts.
func (l *sweepLanes) post(comm *mpi.Comm, ex exchanger, iter int32) {
	l.staged, l.dups = 0, 0
	ex.post(comm, iter)
}

// exchange moves the superstep's records through ex and applies what arrives
// — from a sibling GPU or over the wire — in any order: a record only ORs lane
// bits into its vertex's row, and each lane's level is written once
// (discover), so the sweep needs no canonical arrival order.
func (l *sweepLanes) exchange(comm *mpi.Comm, ex exchanger, iter int32) *exchangeCounts {
	e, sc, w := l.e, l.sc, l.e.w
	w64 := int64(w)
	pgpu := e.shape.GPUsPerRank
	gpu0 := l.gpus[0]
	counts := ex.exchange(comm, iter)
	counts.dups = l.dups
	// The stage's sort and OR is the sweep's uniquify: charge it like the
	// single-query dedup, widened to the lane words each record moves.
	if l.staged > 0 {
		gpu0.it.normalStream += e.charge(gpu0.dev, simgpu.KernelCost{
			Vertices: 2 * l.staged * w64, Strategy: simgpu.TWBDynamic,
		})
	}
	// Intra-rank cross-GPU bins apply directly (NVLink, not NIC).
	var intra int64
	for _, src := range l.gpus {
		for s := 0; s < pgpu; s++ {
			dstGPU := l.rank*pgpu + s
			if dstGPU == src.pg.GPU {
				continue
			}
			ids := src.bins.IDs[dstGPU]
			for i, id := range ids {
				e.discover(e.gpus[dstGPU], sc, id, src.bins.Mask(dstGPU, i))
			}
			intra += int64(len(ids))
		}
	}
	counts.intra = (4 + 8*w64) * intra
	for s, ids := range counts.arrivals {
		lanes := counts.arrivalLanes[s]
		for i, id := range ids {
			e.discover(l.gpus[s], sc, id, lanes[i*w:(i+1)*w])
		}
	}
	// Scatter cost of applying received records on the destination GPUs.
	if applied := counts.arrived + intra; applied > 0 {
		gpu0.it.normalStream += e.charge(gpu0.dev, simgpu.KernelCost{
			Vertices: applied * w64, Strategy: simgpu.TWBDynamic,
		})
	}
	for _, gs := range l.gpus {
		gs.bins.Reset()
	}
	return counts
}

// tally reports the per-query logical edges as the sweep's scanned work.
func (l *sweepLanes) tally() (w superstepWork) {
	for _, gs := range l.gpus {
		w.comp = max(w.comp, streamCombine(gs.it.delegateStream, gs.it.normalStream))
		w.nextNormals += int64(len(gs.outIDs))
		w.edges += gs.it.logical
	}
	return w
}

// rotate moves the iteration's discoveries out of the nxt matrix (only set
// rows need touching) into the next level of each GPU's history, which is the
// next superstep's input frontier.
func (l *sweepLanes) rotate() {
	for _, gs := range l.gpus {
		for _, u := range gs.outIDs {
			row := gs.nxt.Row(int64(u))
			gs.hist.add(u, row)
			clear(row)
		}
		gs.hist.closeLevel()
		gs.outIDs = gs.outIDs[:0]
	}
}

// finish resolves and gathers the rank's share of the sweep's trees.
func (l *sweepLanes) finish(comm *mpi.Comm) { l.e.finishSweep(l.rank, comm, l.gpus, l.sc) }

// run executes the sweep's BSP loop on the phase driver, then its finisher on
// the rank goroutines when it collects trees, and assembles the per-query
// results.
func (e *sweepSession) run(ctx context.Context) ([]*metrics.RunResult, error) {
	armWorld(e.world, e.opts.Inject, sweepTagSite)
	if err := e.traverse(ctx, e.seed()); err != nil {
		return nil, err
	}
	if err := e.cancelErr(ctx); err != nil {
		return nil, err
	}
	return e.results(), nil
}

// traverse runs the sweep from sch on its armed World: the superstep loop and,
// unless it was cancelled, the finisher.
func (e *sweepSession) traverse(ctx context.Context, sch schedule) error {
	e.begin()
	e.drv.reset(e.world)
	loops := make([]rankLoop, len(e.scratch))
	for r, sc := range e.scratch {
		loops[r] = rankLoop{l: &sc.lanes, ls: &sc.loopScratch, comm: e.world.Rank(r)}
	}
	if err := e.drive(ctx, loops, sch); err != nil {
		return err
	}
	if e.rec.cancelled || e.outs == nil {
		return nil
	}
	return launchRanks(e.world, func(rank int, comm *mpi.Comm) { e.scratch[rank].lanes.finish(comm) })
}

// results assembles the per-query results of a finished sweep from the loop's
// sweep-wide statistics.
func (e *sweepSession) results() []*metrics.RunResult {
	rec := &e.rec
	k64 := int64(e.k)
	kf := float64(e.k)
	deepest := e.deepestLevels()
	results := make([]*metrics.RunResult, e.k)
	for q := range results {
		res := &metrics.RunResult{
			Source:        e.sources[q],
			Epoch:         e.epoch,
			Iterations:    int(deepest[q]) + 1,
			SimSeconds:    rec.SimSeconds / kf,
			TEPSEdges:     e.sg.M / 2,
			EdgesScanned:  rec.EdgesScanned / k64,
			DupsRemoved:   rec.DupsRemoved / k64,
			DelegateComms: rec.DelegateComms,
			Parts: metrics.Breakdown{
				Computation:    rec.Parts.Computation / kf,
				LocalComm:      rec.Parts.LocalComm / kf,
				RemoteNormal:   rec.Parts.RemoteNormal / kf,
				RemoteDelegate: rec.Parts.RemoteDelegate / kf,
			},
			Wire: metrics.WireStats{
				Enabled:         e.opts.Compression != wire.ModeOff,
				RawBytes:        rec.Wire.RawBytes / k64,
				CompressedBytes: rec.Wire.CompressedBytes / k64,
				SchemeRaw:       rec.Wire.SchemeRaw / k64,
				SchemeDelta:     rec.Wire.SchemeDelta / k64,
				SchemeBitmap:    rec.Wire.SchemeBitmap / k64,
				CodecBytes:      rec.Wire.CodecBytes / k64,
				CodecSeconds:    rec.Wire.CodecSeconds / kf,
			},
			Exchange: metrics.ExchangeStats{
				Strategy:            "sweep",
				AllPairsIterations:  rec.Exchange.AllPairsIterations,
				ButterflyIterations: rec.Exchange.ButterflyIterations,
				Messages:            rec.Exchange.Messages / k64,
				ForwardedBytes:      rec.Exchange.ForwardedBytes / k64,
				MaxMessageBytes:     rec.Exchange.MaxMessageBytes,
				HiddenCodecSeconds:  rec.Exchange.HiddenCodecSeconds / kf,
				HiddenNVLinkSeconds: rec.Exchange.HiddenNVLinkSeconds / kf,
			},
		}
		if e.outs != nil {
			res.Levels, res.Parents = e.outs[q].levels, e.outs[q].parents
		}
		if e.opts.CollectParents {
			res.ParentPairs = e.pairCount[q].Load()
			res.Wire.PairRawBytes = 12 * e.pairRemote[q].Load()
			res.Wire.PairWireBytes = e.pairWire.Load() / k64
		}
		results[q] = res
	}
	return results
}

// deepestLevels reads each query's deepest level off the histories. A query's
// deepest level plus one is the BSP iteration count it would have run
// standalone (the final iteration discovers nothing and terminates), which is
// exactly Plan.Run's loop count.
func (e *sweepSession) deepestLevels() []int32 {
	deepest := make([]int32, e.k)
	e.scratch[0].histD.deepest(deepest)
	for _, gs := range e.gpus {
		gs.hist.deepest(deepest)
	}
	return deepest
}
