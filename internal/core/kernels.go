package core

import (
	"math/bits"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/metrics"
	"gcbfs/internal/simgpu"
)

// This file implements the local computation of one BFS iteration (§IV,
// Fig. 3): the previsit kernels that form queues and estimate workloads, the
// four visit kernels in their forward (push) and backward (pull) variants,
// and the per-subgraph direction decisions. They are the only kernels of a
// single-source traversal: a cold run and a repair wave (repair.go) both run
// runKernels, the repair with direction optimization off.
//
// The forward kernels and applyIDs share one visit rule, improves: a vertex
// is visited at iter+1 when its level is unset or deeper. A cold traversal
// never holds a level deeper than iter+1, so there it is the plain unvisited
// test; a repair's preloaded levels may be, and the wave lowers them. The
// backward kernels test the visited mask, which only a cold run pulls from.
//
// Work is counted exactly: forward kernels scan every neighbor of every
// queued source; backward kernels count parent checks until the first
// visited parent. The counts drive both the direction decisions (FV vs BV)
// and the simulated kernel times. While a cold query collects parents, the dd
// kernel also folds each delegate's smallest dd parent into the rank's
// candidates (parents.go, step 0); the backward scan reads the rest of a
// row past its first hit to do so, and those reads are not counted, so the
// tree stays unpriced (§VI-A3) and the modelled clock is a levels-only run's.

// previsitOut carries queue and workload info from the previsit kernels.
type previsitOut struct {
	// Delegate-sourced queues (dense delegate ids with local edges).
	qDD, qDN []int64
	// Forward workloads per subgraph: Σ out-degrees of queued sources.
	fvDD, fvDN, fvND, fvNN int64
	// Max row lengths for the TWB skew estimate (dd's is only consulted
	// by the ForceTWBForDD ablation — merge-path ignores skew).
	maxDD, maxDN, maxND, maxNN int64
}

// previsit runs both previsit kernels (§IV: level marking, duplicate and
// zero-degree filtering, queue formation, workload calculation) and charges
// their cost to the respective streams.
func (e *Session) previsit(gs *gpuState) previsitOut {
	var out previsitOut
	// Delegate previsit: scan the (globally consistent) delegate frontier
	// and keep delegates with local dd or dn edges — the frontier's words
	// ANDed with the subgraphs' source masks, so a row offset is read only
	// for a delegate that has the row. The queues are rebuilt every
	// super-step, so they draw on the GPU state's persistent buffers.
	out.qDD, out.qDN = gs.qDDBuf[:0], gs.qDNBuf[:0]
	frontierBits := gs.dFrontN
	if frontierBits > 0 {
		pg := gs.pg
		ddSrc, dnSrc := pg.DDSourceMask.Words(), pg.DNSourceMask.Words()
		for wi, front := range gs.dFront.Words() {
			if front == 0 {
				continue
			}
			out.qDD, out.fvDD, out.maxDD = queueRows(out.qDD, out.fvDD, out.maxDD, wi, front&ddSrc[wi], pg.DD.RowOffsets)
			out.qDN, out.fvDN, out.maxDN = queueRows(out.qDN, out.fvDN, out.maxDN, wi, front&dnSrc[wi], pg.DN.RowOffsets)
		}
	}
	gs.qDDBuf, gs.qDNBuf = out.qDD, out.qDN // retain grown capacity
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Vertices: frontierBits + e.d/64, Strategy: simgpu.TWBDynamic,
	})

	// Normal previsit: the input frontier is already deduplicated (levels
	// are set exactly once at discovery); compute per-subgraph workloads
	// and filter zero-degree rows at kernel time.
	for _, u := range gs.inFront {
		row := int64(u)
		if deg := gs.pg.ND.Degree(row); deg > 0 {
			out.fvND += deg
			if deg > out.maxND {
				out.maxND = deg
			}
		}
		if deg := gs.pg.NN.Degree(row); deg > 0 {
			out.fvNN += deg
			if deg > out.maxNN {
				out.maxNN = deg
			}
		}
	}
	gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
		Vertices: 2 * int64(len(gs.inFront)), Strategy: simgpu.TWBDynamic,
	})
	return out
}

// queueRows appends the delegates of word wi's set bits to q, ascending, and
// folds their row lengths into the forward workload fv and the longest row.
func queueRows(q []int64, fv, longest int64, wi int, word uint64, offs []uint32) ([]int64, int64, int64) {
	for ; word != 0; word &= word - 1 {
		di := wi*64 + bits.TrailingZeros64(word)
		deg := int64(offs[di+1] - offs[di])
		q = append(q, int64(di))
		fv += deg
		longest = max(longest, deg)
	}
	return q, fv, longest
}

// backwardWorkload evaluates the paper's BV estimate: |U|·(q+s)/q, the
// expected number of parent checks until the first newly visited parent
// (§IV-B). q=0 means no potential parents: return infinity so the kernel
// stays (or returns) forward, where FV=0 elides it anyway.
func backwardWorkload(u, q, s int64) float64 {
	if q <= 0 {
		return 1e300
	}
	return float64(u) * float64(q+s) / float64(q)
}

// decide applies the two-factor switching rule to one subgraph's direction.
func decide(cur metrics.Direction, f SwitchFactors, fv int64, bv float64) metrics.Direction {
	switch cur {
	case metrics.Forward:
		if float64(fv) > f.Fwd2Bwd*bv {
			return metrics.Backward
		}
	case metrics.Backward:
		if float64(fv) < f.Bwd2Fwd*bv {
			return metrics.Forward
		}
	}
	return cur
}

// backwardCache is what the backward kernels derive from the visited mask,
// kept per visited generation so that a superstep which visited no delegate
// re-derives none of it: the sizes of the backward dd and nd kernels'
// candidate sets (unvisited delegates with local dd / dn edges) and the
// unvisited-delegate count, which every direction decision needs; the
// candidate lists themselves, which only a kernel actually running backward
// builds; and the backward dd kernel's last fruitless scan. liveND is per
// query rather than per generation: the still-unvisited members of NDSources,
// the backward dn kernel's candidates. The lists are uint32 and keep their
// capacity across pooled queries.
type backwardCache struct {
	gen                 uint64 // visited generation the three counts describe
	uDD, uND, unvisited int64

	candDD, candDN candList

	// Backward dd is a pure function of visited: a scan that proposed nothing
	// leaves visited as it was, so while ddGen matches, the scan would count
	// the same edges and vertices again and propose nothing again.
	ddGen               uint64
	ddEdges, ddVertices int64

	liveND []uint32
	liveOK bool // liveND holds this query's list (reset clears)
}

// candList is sources &^ visited as an ascending id list — what the backward
// kernels used to rebuild with mask algebra every superstep — valid for one
// visited generation.
type candList struct {
	gen uint64
	ids []uint32
}

func (c *candList) at(gen uint64, sources, visited *bitmask.Mask) []uint32 {
	if c.gen != gen {
		c.ids = c.ids[:0]
		sources.ForEachExcluding(func(u int64) { c.ids = append(c.ids, uint32(u)) }, visited)
		c.gen = gen
	}
	return c.ids
}

// backward returns the GPU's backward-kernel cache with its counts brought up
// to the current visited generation.
func (gs *gpuState) backward() *backwardCache {
	bc := &gs.back
	if bc.gen != gs.visGen {
		bc.uDD = gs.pg.DDSourceMask.CountExcluding(gs.visited)
		bc.uND = gs.pg.DNSourceMask.CountExcluding(gs.visited)
		bc.unvisited = gs.visited.Len() - gs.visited.Count()
		bc.gen = gs.visGen
	}
	return bc
}

// decideDirections updates the per-subgraph directions for this iteration.
// qD and sD are the global newly-visited and unvisited delegate counts (the
// delegate masks are globally consistent, so no communication is needed).
func (e *Session) decideDirections(gs *gpuState, pv previsitOut) {
	if !e.opts.DirectionOptimized {
		gs.dirDD, gs.dirDN, gs.dirND = metrics.Forward, metrics.Forward, metrics.Forward
		return
	}
	// Candidate-set sizes for the backward variants.
	bc := gs.backward()
	qD, sD := gs.dFrontN, bc.unvisited
	uDD, uND := bc.uDD, bc.uND
	uDN := gs.unvisitedNDSources
	qN := int64(len(gs.inFront))
	sN := gs.unvisitedNDSources

	gs.dirDD = decide(gs.dirDD, e.opts.FactorsDD, pv.fvDD, backwardWorkload(uDD, qD, sD))
	gs.dirDN = decide(gs.dirDN, e.opts.FactorsDN, pv.fvDN, backwardWorkload(uDN, qD, sD))
	gs.dirND = decide(gs.dirND, e.opts.FactorsND, pv.fvND, backwardWorkload(uND, qN, sN))

	// The decision scans (mask sweeps) are extra DO work the paper calls
	// out on long-tail graphs (§VI-D). They fuse into the previsit
	// kernels, so charge compute time without a separate launch.
	gs.it.delegateStream += float64(2*(e.d/64)) / e.opts.GPU.VertexRate
}

// improves is the visit rule: a vertex at level l is (re-)levelled at iter+1
// when l is unset or deeper. An unset level is -1, the largest uint32, so the
// test is one compare.
func improves(l, iter int32) bool { return uint32(l) > uint32(iter+1) }

// discover sets a local normal vertex's level to depth, the visit rule having
// passed it, and appends it to the output frontier. A normal vertex's parent is
// not recorded here: it is resolved canonically after the traversal
// (parents.go), so it never depends on which kernel or exchange strategy
// happened to reach the vertex first. Only the dd kernel records, and it folds
// every candidate it sees, not the first.
func (gs *gpuState) discover(local uint32, depth int32) {
	gs.levels[local] = depth
	gs.outFront = append(gs.outFront, local)
	if gs.isNDSource[local] {
		gs.unvisitedNDSources--
	}
}

// kernelDD processes delegate→delegate edges into the new-delegate mask.
func (e *Session) kernelDD(gs *gpuState, pv previsitOut, iter int32) {
	var edges int64
	var vertices int64
	strategy := simgpu.MergePath
	if e.opts.ForceTWBForDD {
		strategy = simgpu.TWBDynamic
	}
	var rec []uint32 // the rank's dd candidates, while the kernels record them
	if gs.tree != nil {
		rec = gs.tree.dd
	}
	if gs.dirDD == metrics.Forward {
		// Every level-iter delegate with a dd row here is queued, so a
		// delegate's proposers are all its dd parents here. The fold is a min,
		// not a first write, because the rank's GPUs fold into one array in
		// turn.
		for _, u := range pv.qDD {
			for _, dv := range gs.pg.DD.Neighbors(u) {
				edges++
				if improves(gs.delegateLevel[dv], iter) {
					gs.propose(int64(dv))
					if rec != nil {
						rec[dv] = min(rec[dv], uint32(u))
					}
				}
			}
		}
		vertices = int64(len(pv.qDD))
	} else if bc := &gs.back; bc.ddGen == gs.visGen {
		// Nothing was visited since the last scan found nothing: replay it.
		edges, vertices = bc.ddEdges, bc.ddVertices
	} else {
		// Backward pull: unvisited delegates with local dd edges check
		// their local parents against the visited mask (depth ≤ iter). A
		// visited neighbor of an unvisited delegate sits at depth iter
		// exactly, so the first hit and every visited id past it are the
		// delegate's dd parents here; the tail's reads are not counted.
		found := false
		for _, u := range bc.candDD.at(gs.visGen, gs.pg.DDSourceMask, gs.visited) {
			vertices++
			row := gs.pg.DD.Neighbors(int64(u))
			for i, dv := range row {
				edges++
				if gs.visited.Get(int64(dv)) {
					gs.propose(int64(u))
					if rec != nil {
						rec[u] = min(rec[u], dv, minVisited(row[i+1:], gs.visited.Words()))
					}
					found = true
					break
				}
			}
		}
		vertices += e.d / 64
		if !found {
			bc.ddGen, bc.ddEdges, bc.ddVertices = gs.visGen, edges, vertices
		}
	}
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: strategy,
		Skew: rowSkew(pv.maxDD, pv.fvDD, int64(len(pv.qDD))),
	})
}

// minVisited is the smallest delegate id of row set in the visited words,
// noDelegate if none. It is branch-free: whether a neighbor is visited is a
// coin flip to the branch predictor.
func minVisited(row []uint32, visited []uint64) uint32 {
	best := noDelegate
	for _, dv := range row {
		hit := uint32(visited[dv>>6]>>(dv&63)) & 1
		best = min(best, dv|(hit-1))
	}
	return best
}

// kernelND processes normal→delegate edges into the new-delegate mask.
func (e *Session) kernelND(gs *gpuState, pv previsitOut, iter int32) {
	var edges, vertices int64
	var skew float64
	if gs.dirND == metrics.Forward {
		for _, u := range gs.inFront {
			for _, dv := range gs.pg.ND.Neighbors(int64(u)) {
				edges++
				if improves(gs.delegateLevel[dv], iter) {
					gs.propose(int64(dv))
				}
			}
		}
		vertices = int64(len(gs.inFront))
		skew = rowSkew(pv.maxND, pv.fvND, vertices)
	} else {
		// Backward: unvisited delegates with local dn edges look for a
		// visited local normal parent (depth ≤ iter; this iteration's
		// discoveries are iter+1 and must not count).
		for _, u := range gs.back.candDN.at(gs.visGen, gs.pg.DNSourceMask, gs.visited) {
			if gs.newDirty && gs.newMask.Get(int64(u)) {
				continue // already found by dd this iteration
			}
			vertices++
			for _, lv := range gs.pg.DN.Neighbors(int64(u)) {
				edges++
				if lvl := gs.levels[lv]; lvl >= 0 && lvl <= iter {
					gs.propose(int64(u))
					break
				}
			}
		}
		vertices += e.d / 64
	}
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: simgpu.TWBDynamic, Skew: skew,
	})
}

// kernelDN processes delegate→normal edges into the output normal frontier.
func (e *Session) kernelDN(gs *gpuState, pv previsitOut, iter int32) {
	var edges, vertices int64
	var skew float64
	if gs.dirDN == metrics.Forward {
		for _, u := range pv.qDN {
			for _, lv := range gs.pg.DN.Neighbors(u) {
				edges++
				if improves(gs.levels[lv], iter) {
					gs.discover(lv, iter+1)
				}
			}
		}
		vertices = int64(len(pv.qDN))
		skew = rowSkew(pv.maxDN, pv.fvDN, vertices)
	} else {
		// Backward: unvisited members of the nd source list (exactly the
		// potential dn destinations, §IV-B) look for a visited delegate
		// parent in the visited-as-of-iteration-start mask. The walk runs
		// over the query's live list — NDSources minus everything an earlier
		// walk saw visited — and compacts it stably as it goes, so it visits
		// the unvisited members in NDSources order, as a full scan would.
		bc := &gs.back
		if !bc.liveOK {
			bc.liveND = append(bc.liveND[:0], gs.pg.NDSources...)
			bc.liveOK = true
		}
		live := bc.liveND[:0]
		for _, v := range bc.liveND {
			if gs.levels[v] != -1 {
				continue
			}
			vertices++
			found := false
			for _, dv := range gs.pg.ND.Neighbors(int64(v)) {
				edges++
				if gs.visited.Get(int64(dv)) {
					gs.discover(v, iter+1)
					found = true
					break
				}
			}
			if !found {
				live = append(live, v)
			}
		}
		bc.liveND = live
	}
	gs.it.edgesScanned += edges
	gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: simgpu.TWBDynamic, Skew: skew,
	})
}

// kernelNN processes normal→normal edges: local destinations are applied
// immediately; remote ones are binned by destination GPU with the 64→32-bit
// id conversion done sender-side (§V-B). nn never runs backward (§IV-B), so
// every frontier vertex pushes every nn neighbor, its parents' level included:
// a same-GPU destination one level up is thereby known to have a child level
// (gpuState.hasChild); applyIDs marks the remote ones.
func (e *Session) kernelNN(gs *gpuState, pv previsitOut, iter int32) {
	var edges int64
	p64 := int64(e.p)
	self := gs.pg.GPU
	for _, u := range gs.inFront {
		for _, v := range gs.pg.NN.Neighbors(int64(u)) {
			edges++
			owner := e.cfg.OwnerGPU(v)
			local := uint32(v / p64)
			if owner == self {
				if lvl := gs.levels[local]; improves(lvl, iter) {
					gs.discover(local, iter+1)
				} else if lvl == iter-1 {
					gs.hasChild.Set(int64(local))
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
	// Binning + id conversion cost, O(|Enn|/p) across the whole run.
	if binned := gs.it.binned; binned > 0 {
		gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
			Vertices: binned, Strategy: simgpu.TWBDynamic,
		})
	}
}

// rowSkew estimates maxRow/avgRow - 1 for the TWB imbalance penalty.
func rowSkew(maxRow, total, rows int64) float64 {
	if rows == 0 || total == 0 || maxRow == 0 {
		return 0
	}
	avg := float64(total) / float64(rows)
	return float64(maxRow)/avg - 1
}

// runKernels executes one iteration's local computation on one GPU.
func (e *Session) runKernels(gs *gpuState, iter int32) {
	pv := e.previsit(gs)
	e.decideDirections(gs, pv)
	// Delegate stream: dd then nd (both write the delegate mask).
	e.kernelDD(gs, pv, iter)
	e.kernelND(gs, pv, iter)
	// Normal stream: dn then nn (both write the normal frontier).
	e.kernelDN(gs, pv, iter)
	e.kernelNN(gs, pv, iter)
}
