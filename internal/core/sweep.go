package core

// Multi-source shared sweep (MS-BFS): one BSP traversal answers K BFS
// queries at once. Per-vertex visited state widens from a bit to a K-bit
// query-set mask (bitmask.Matrix, w = ⌈K/64⌉ words per vertex), frontier
// records carry (vertex, query-set) payloads through the record codec
// (wire/records.go), and the delegate tier reduces a d×K mask matrix instead
// of a d-bit mask. The sweep is forward-only: hop distances are
// direction-invariant, so its levels — and the canonical parents derived
// from them (parents.go) — are bit-identical to K independent Plan.Run
// calls; what the sweep buys is amortization, since a vertex expanded for
// many queries in one iteration scans its adjacency once, and records
// destined for the same vertex merge into one wire record with OR-ed masks.
//
// A sweep is a payload of the superstep loop, not a loop of its own: this
// file is its per-GPU state, its kernels and its lanes implementation
// (sweepLanes); runEnv.runRank (run.go) runs it, so the sweep's supersteps,
// fault sites, timing assembly and cancellation are the single-source
// traversal's, line for line.
//
// The simulated cost model charges the widened work honestly: kernels pay
// edges×w word operations, the delegate allreduce moves d×w×8 bytes, and
// the exchange ships the record payloads under the single-source run's
// all-pairs charging rule (sweep_exchange.go). Per-query figures are the sweep
// totals divided by K — GTEPS becomes the amortized per-query rate the cmp5
// ablation compares against independent RunBatch.

import (
	"context"
	"fmt"

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
// evenly by the query count (integer division for byte/edge counters — the
// deterministic convention). Duplicate sources are allowed and simply occupy
// two query lanes; Service-level admission dedups them beforehand.
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

// sweepGPU is one GPU's state for a sweep: per-query hop distances plus the
// mask-matrix analogues of gpuState's frontier and visited structures.
type sweepGPU struct {
	pg  *partition.GPUGraph
	dev *simgpu.Device

	lv   [][]int32 // [k][slot] hop distance, -1 unvisited
	dLev [][]int32 // [k][delegate] hop distance (this GPU's replica)

	vis, front, nxt    *bitmask.Matrix // NumLocal × K
	visD, frontD, newD *bitmask.Matrix // d × K

	inIDs, outIDs []uint32 // active normal frontier slots (set rows of front/nxt)
	bins          *frontier.RecordBins

	it sweepIterWork
}

// sweepIterWork accumulates one iteration's counted work on one GPU.
type sweepIterWork struct {
	delegateStream float64
	normalStream   float64
	logical        int64 // per-query logical edges: Σ popcount(row)·degree
}

// sweepScratch is one rank goroutine's reusable sweep state.
type sweepScratch struct {
	rankD  []uint64 // d×w delegate-mask reduce buffer
	addRow []uint64 // w-word newly-discovered scratch row

	// Sender-side merge scratch: concatenated records per destination slot,
	// their (id, record index) sort keys with the radix sort's scatter
	// buffer, and the merged output handed to the codec.
	mIDs     []uint32
	mMasks   []uint64
	order    []frontier.Pair
	orderBuf []frontier.Pair
	outIDs   [][]uint32
	outMasks [][]uint64

	// Arrival bins (per local slot of this rank).
	arrIDs   [][]uint32
	arrMasks [][]uint64
	// hops backs the exchange's one-entry per-hop vectors (sent, codec, recv).
	hops [3]int64

	sel     *wire.RecordSelector
	parents parentScratch
	// deepest[q] is the deepest level this rank wrote for query q: levels
	// are written at the current depth, which only grows, so the writers
	// just store it.
	deepest []int32

	// lanes is the rank's side of the sweep; loopScratch the superstep
	// loop's own buffers.
	lanes sweepLanes
	loopScratch
}

// sweepSession is the mutable state of one in-flight sweep. Sweeps are built
// fresh per RunSweep — the allocation amortizes over K queries, so pooling
// buys nothing here.
type sweepSession struct {
	runEnv
	k, w    int
	sources []int64
	gpus    []*sweepGPU
	scratch []*sweepScratch
	world   *mpi.World

	// qts[k] is the per-query tree view resolution and gather operate on and
	// outs[k] the global result arrays the ranks fill. parents[g] is GPU g's
	// local parent array, shared by the queries and reused sequentially:
	// each rank resets and reads only its own GPUs' rows.
	parents [][]int64
	qts     []queryTree
	outs    []treeOut

	// Per-query parent-resolution traffic counters (indexed by query).
	pairCount, pairRaw, pairWire []int64
}

func (p *Plan) newSweepSession(opts Options, sources []int64) *sweepSession {
	// The sweep's record exchange is all-pairs, whatever the plan says (a
	// payload-generic exchanger, and with it butterfly and hybrid sweeps, is a
	// follow-on; results are identical either way).
	opts.Exchange = ExchangeAllPairs
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
		gs := &sweepGPU{
			pg:     pg,
			dev:    simgpu.NewDevice(opts.GPU, i),
			lv:     make([][]int32, k),
			dLev:   make([][]int32, k),
			vis:    bitmask.NewMatrix(pg.NumLocal, k),
			front:  bitmask.NewMatrix(pg.NumLocal, k),
			nxt:    bitmask.NewMatrix(pg.NumLocal, k),
			visD:   bitmask.NewMatrix(e.d, k),
			frontD: bitmask.NewMatrix(e.d, k),
			newD:   bitmask.NewMatrix(e.d, k),
			bins:   frontier.NewRecordBins(e.p, w),
		}
		for q := 0; q < k; q++ {
			gs.lv[q] = make([]int32, pg.NumLocal)
			for s := range gs.lv[q] {
				gs.lv[q][s] = -1
			}
			gs.dLev[q] = make([]int32, e.d)
			for s := range gs.dLev[q] {
				gs.dLev[q][s] = -1
			}
		}
		e.gpus[i] = gs
	}
	prank := p.shape.Ranks()
	pgpu := p.shape.GPUsPerRank
	e.scratch = make([]*sweepScratch, prank)
	for r := range e.scratch {
		e.scratch[r] = &sweepScratch{
			rankD:    make([]uint64, e.d*int64(w)),
			addRow:   make([]uint64, w),
			outIDs:   make([][]uint32, pgpu),
			outMasks: make([][]uint64, pgpu),
			arrIDs:   make([][]uint32, pgpu),
			arrMasks: make([][]uint64, pgpu),
			sel:      wire.NewRecordSelectorSized(prank * pgpu),
			deepest:  make([]int32, k),
		}
		e.scratch[r].lanes = sweepLanes{e: e, rank: r, gpus: e.gpus[r*pgpu : (r+1)*pgpu], sc: e.scratch[r]}
	}
	if opts.CollectParents {
		e.parents = make([][]int64, e.p)
		for i, pg := range p.sg.GPUs {
			e.parents[i] = make([]int64, pg.NumLocal)
		}
		e.pairCount = make([]int64, k)
		e.pairRaw = make([]int64, k)
		e.pairWire = make([]int64, k)
	}
	if opts.CollectLevels || opts.CollectParents {
		e.qts = make([]queryTree, k)
		e.outs = make([]treeOut, k)
		for q := 0; q < k; q++ {
			qt := queryTree{
				levels:  make([][]int32, e.p),
				dLevel:  make([][]int32, e.p),
				parents: e.parents,
			}
			for g, gs := range e.gpus {
				qt.levels[g] = gs.lv[q]
				qt.dLevel[g] = gs.dLev[q]
			}
			e.qts[q] = qt
			e.outs[q] = newTreeOut(&opts, e.sg.N)
		}
	}
	return e
}

// seed plants each query's source at depth 0 in its lane and returns the
// sweep's seed schedule: its sources, all at level 0.
func (e *sweepSession) seed() schedule {
	sch := schedule{nSeeds: []int64{0}, dSeeds: []int64{0}}
	for q, src := range e.sources {
		if e.sg.Sep.IsDelegate(src) {
			sch.dSeeds[0]++
			di := int64(e.sg.Sep.DelegateID[src])
			for _, gs := range e.gpus {
				gs.visD.Set(di, q)
				gs.frontD.Set(di, q)
				gs.dLev[q][di] = 0
			}
			continue
		}
		sch.nSeeds[0]++
		gs := e.gpus[e.cfg.OwnerGPU(src)]
		local := int64(e.cfg.LocalID(src))
		if !bitmask.RowAny(gs.front.Row(local)) {
			gs.inIDs = append(gs.inIDs, uint32(local))
		}
		gs.vis.Set(local, q)
		gs.front.Set(local, q)
		gs.lv[q][local] = 0
	}
	return sch
}

// discover folds newly reached query bits into a local vertex: bits not yet
// visited mark the per-query level, join the visited row and the output
// frontier row. The fold is order-independent across arrival sources — a
// query bit's level is written exactly once, on the iteration it first
// appears — which is what makes the sweep deterministic without the
// single-query engine's canonical arrival ordering.
func (e *sweepSession) discover(gs *sweepGPU, sc *sweepScratch, local uint32, mask []uint64, depth int32) {
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
	bitmask.RowForEach(add, func(q int) { gs.lv[q][local], sc.deepest[q] = depth, depth })
}

// runKernels executes one iteration's forward kernels on one GPU. Edge work
// is charged at w word-operations per structural edge — the widened mask is
// what the SIMD lanes actually move.
func (e *sweepSession) runKernels(gs *sweepGPU, sc *sweepScratch, iter int32) {
	w64 := int64(e.w)
	p64 := int64(e.p)
	self := gs.pg.GPU

	// Delegate previsit + dd/dn kernels: scan the frontier matrix rows (the
	// d×w/64-word sweep is the previsit analogue of the delegate mask scan).
	var ddEdges, dnEdges, dVerts int64
	for di := int64(0); di < e.d; di++ {
		row := gs.frontD.Row(di)
		if !bitmask.RowAny(row) {
			continue
		}
		dVerts++
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
				e.discover(gs, sc, lv, row, iter+1)
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

	// Normal previsit + nd/nn kernels over the active slot list.
	var ndEdges, nnEdges, binned int64
	nVerts := int64(len(gs.inIDs))
	for _, u := range gs.inIDs {
		row := gs.front.Row(int64(u))
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
					e.discover(gs, sc, local, row, iter+1)
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

// commitDelegates folds the globally reduced new-delegate matrix into one
// GPU's replicated delegate state and returns the number of newly visited
// (delegate, query) pairs.
func (e *sweepSession) commitDelegates(gs *sweepGPU, sc *sweepScratch, iter int32) int64 {
	w := e.w
	var committed int64
	for di := int64(0); di < e.d; di++ {
		red := sc.rankD[di*int64(w) : (di+1)*int64(w)]
		visRow := gs.visD.Row(di)
		frontRow := gs.frontD.Row(di)
		add := sc.addRow
		if !bitmask.RowAndNotInto(add, red, visRow) {
			clear(frontRow)
			continue
		}
		bitmask.RowOr(visRow, add)
		copy(frontRow, add)
		committed += int64(bitmask.RowCount(add))
		lv := gs.dLev
		bitmask.RowForEach(add, func(q int) { lv[q][di], sc.deepest[q] = iter+1, iter+1 })
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

// commit folds the reduced matrix into every GPU's replica. The matrix
// ships in its native form — there is no mask codec for d×K bits.
func (l *sweepLanes) commit(reduced bool, iter int32) (dc delegateCommit) {
	for _, gs := range l.gpus {
		if reduced {
			dc.visits = l.e.commitDelegates(gs, l.sc, iter)
		} else {
			gs.frontD.Reset()
		}
		gs.newD.Reset()
	}
	if reduced {
		dc.native = l.e.d * int64(l.e.w) * 8
		dc.wire = dc.native
	}
	return dc
}

func (l *sweepLanes) exchanger(Exchange) exchanger { return recordExchange{l} }

func (l *sweepLanes) exchange(comm *mpi.Comm, ex exchanger, iter int32, present []int64) exchangeCounts {
	return ex.exchange(comm, iter, present)
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

// rotate clears the old front rows (only set rows need touching), then swaps
// the matrices and the active-slot lists.
func (l *sweepLanes) rotate() {
	for _, gs := range l.gpus {
		for _, u := range gs.inIDs {
			clear(gs.front.Row(int64(u)))
		}
		gs.front, gs.nxt = gs.nxt, gs.front
		gs.inIDs, gs.outIDs = gs.outIDs, gs.inIDs[:0]
	}
}

func (l *sweepLanes) finish(comm *mpi.Comm) {
	if l.e.outs != nil {
		l.e.finishSweep(l.rank, comm)
	}
}

// run executes the sweep's BSP loop across rank goroutines and assembles the
// per-query results from the loop's sweep-wide statistics.
func (e *sweepSession) run(ctx context.Context) ([]*metrics.RunResult, error) {
	sch := e.seed()
	e.begin()
	err := RunRanks(e.world, e.opts.Inject, sweepTagSite, func(rank int, comm *mpi.Comm) {
		sc := e.scratch[rank]
		e.runRank(ctx, rank, comm, &sc.lanes, &sc.loopScratch, sch)
	})
	if err != nil {
		return nil, err
	}
	if err := e.cancelErr(ctx); err != nil {
		return nil, err
	}

	rec := &e.rec
	k64 := int64(e.k)
	kf := float64(e.k)
	results := make([]*metrics.RunResult, e.k)
	for q := range results {
		res := &metrics.RunResult{
			Source:        e.sources[q],
			Epoch:         e.epoch,
			Iterations:    e.queryIterations(q),
			SimSeconds:    rec.simSeconds / kf,
			TEPSEdges:     e.sg.M / 2,
			EdgesScanned:  rec.edgesScanned / k64,
			DupsRemoved:   rec.dupsRemoved / k64,
			DelegateComms: rec.delegateComms,
			Parts: metrics.Breakdown{
				Computation:    rec.parts.Computation / kf,
				LocalComm:      rec.parts.LocalComm / kf,
				RemoteNormal:   rec.parts.RemoteNormal / kf,
				RemoteDelegate: rec.parts.RemoteDelegate / kf,
			},
			Wire: metrics.WireStats{
				Enabled:         e.opts.Compression != wire.ModeOff,
				RawBytes:        rec.wire.RawBytes / k64,
				CompressedBytes: rec.wire.CompressedBytes / k64,
				SchemeRaw:       rec.wire.SchemeRaw,
				SchemeDelta:     rec.wire.SchemeDelta,
				SchemeBitmap:    rec.wire.SchemeBitmap,
				MemoHits:        rec.wire.MemoHits,
				CodecBytes:      rec.wire.CodecBytes / k64,
				CodecSeconds:    rec.wire.CodecSeconds / kf,
			},
			Exchange: metrics.ExchangeStats{
				Strategy:           "sweep",
				AllPairsIterations: rec.exchange.AllPairsIterations,
				Messages:           rec.exchange.Messages / k64,
				MaxMessageBytes:    rec.exchange.MaxMessageBytes,
			},
		}
		if e.outs != nil {
			res.Levels, res.Parents = e.outs[q].levels, e.outs[q].parents
		}
		if e.opts.CollectParents {
			res.ParentPairs = e.pairCount[q]
			res.Wire.PairRawBytes = e.pairRaw[q]
			res.Wire.PairWireBytes = e.pairWire[q]
		}
		results[q] = res
	}
	return results, nil
}

// queryIterations reconstructs the BSP iteration count query q would have
// run standalone: its deepest level plus one (the final iteration discovers
// nothing and terminates), which is exactly Plan.Run's loop count.
func (e *sweepSession) queryIterations(q int) int {
	var deepest int32
	for _, sc := range e.scratch {
		deepest = max(deepest, sc.deepest[q])
	}
	return int(deepest) + 1
}

// finishSweep resolves and gathers the K queries back to back on this rank.
// Each query is the exact single-query pass with its own tag, so the trees
// are bit-identical to Run's. The shared parent rows need no hand-off
// between queries: a rank resets, fills and gathers only its own.
func (e *sweepSession) finishSweep(rank int, comm *mpi.Comm) {
	pgpu := e.shape.GPUsPerRank
	sc := e.scratch[rank]
	for q := 0; q < e.k; q++ {
		var pc parentCounters
		if e.opts.CollectParents {
			for g := rank * pgpu; g < (rank+1)*pgpu; g++ {
				buf := e.parents[g]
				for i := range buf {
					buf[i] = -1
				}
			}
			pc = parentCounters{
				pairs:     &e.pairCount[q],
				rawBytes:  &e.pairRaw[q],
				wireBytes: &e.pairWire[q],
			}
		}
		e.planEnv.resolveAndGather(e.opts.Compression, rank, comm, e.sources[q],
			&e.qts[q], parentTagBase+q, &sc.parents, pc, e.outs[q])
	}
}
