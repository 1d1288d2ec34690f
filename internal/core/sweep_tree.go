package core

// The sweep's tree: levels and canonical parents of all K lanes from one pass
// over the frontier history. The contract is parents.go's — parent = smallest
// global id one level closer, a pure function of the levels — and so is the
// tree, bit for bit; what differs is that K lanes are resolved at once.
//
// A sweep never writes a hop distance down. It keeps, because the traversal
// needs it anyway, its frontier history (laneHist): per level L, the (vertex,
// lane set) rows of the vertices some lane first reached at L — sparse, so a
// 300-level web graph costs what an 8-level RMAT does, and exact at any depth.
// That is every lane's level of every vertex, and it turns the search for tree
// edges into word operations: for an edge u–v and a row (L, from) of u, the
// lanes in which u is a legal parent of v are from & lanes(v, L+1).
//
//   - Delegate tier, level by level, level L's lane sets scattered into a d×K
//     matrix and level L's normals' into each GPU's NumLocal×K todo matrix.
//     dd and nd passes: level L−1's delegates in ascending id against their dd
//     rows and their DN rows (each GPU's DN is the co-located transpose of its
//     ND); from & todo(v) are the lanes v still wants a delegate parent in,
//     and because dense delegate ids ascend with global ids
//     (partition.Separate) the FIRST hit per (vertex, lane) is its smallest
//     delegate parent — written once, struck off todo, never compared. A row
//     is read once per distinct level its delegate holds across all lanes,
//     not once per lane. Then level L−1's normals offer themselves to their
//     level-L delegate neighbors over ND; an offer, like the nn replay's, is
//     compared with the candidate it meets.
//   - nn replay: one pair round whose pairs carry the sender's lane set (the
//     round's lane-set column, a mask section behind each pairs block on the
//     wire); the receiver finds "v's lanes at level L" in the history
//     regrouped by vertex (laneIndex).
//   - Reduction: a rank's candidates for the d·K (delegate, lane) pairs are
//     uint32 as stored (a sweep that collects parents needs vertex ids below
//     2^32−1: as int64 they would be the sweep's largest allocation), and meet
//     in one reduce-scatter (mpi.ReduceScatterMin, two rendezvous whatever the
//     rank count), which leaves each rank the global candidates of the
//     delegates it gathers.
//   - Gather: past the reduction every rank writes one contiguous range of
//     global ids of all K result arrays — every GPU's slots in it, read from
//     their visited rows, lane indexes and candidates, and the delegates in
//     it, from the replicated delegate tier and the reduced stripe — a block
//     of lanes at a time in id order, every entry once.
//
// Like the single tree, none of this is on the modelled clock.

import (
	"math/bits"
	"slices"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/frontier"
	"gcbfs/internal/mpi"
)

// laneHist is the frontier history of one vertex tier: for every level, in
// level order, the vertices some lane first reached there and the w-word set
// of those lanes. The last closed level is the traversal's input frontier.
type laneHist struct {
	w    int
	off  []int32  // closed level L's entries are [off[L], off[L+1])
	ids  []uint32 // entry → vertex (local slot or delegate id)
	rows []uint64 // entry → lane set, w words
}

// newLaneHist returns the empty history of n vertices, with room for the two
// entries apiece an RMAT sweep comes to before it grows.
func newLaneHist(w int, n int64) laneHist {
	return laneHist{w: w, off: []int32{0}, ids: make([]uint32, 0, 2*n), rows: make([]uint64, 0, 2*n*int64(w))}
}

// add appends an entry to the open level.
func (h *laneHist) add(id uint32, row []uint64) {
	h.ids = append(h.ids, id)
	h.rows = append(h.rows, row...)
}

// closeLevel ends the open level and opens the next.
func (h *laneHist) closeLevel() { h.off = append(h.off, int32(len(h.ids))) }

// levels returns the number of closed levels.
func (h *laneHist) levels() int32 { return int32(len(h.off)) - 1 }

// level returns closed level l's vertices and their lane sets.
func (h *laneHist) level(l int32) ([]uint32, []uint64) {
	lo, hi := int(h.off[l]), int(h.off[l+1])
	return h.ids[lo:hi], h.rows[lo*h.w : hi*h.w]
}

// deepest raises deepest[q] to the deepest level lane q appears on.
func (h *laneHist) deepest(deepest []int32) {
	for l := h.levels() - 1; l > 0; l-- {
		_, rows := h.level(l)
		for i, word := range rows {
			for base := i % h.w * 64; word != 0; word &= word - 1 {
				if q := base + bits.TrailingZeros64(word); deepest[q] < l {
					deepest[q] = l
				}
			}
		}
	}
}

// laneIndex is a laneHist regrouped by vertex: the entries of the i-th vertex
// of its range, in ascending level, are [off[i], off[i+1]) — usually two or
// three, because the lanes of a sweep reach a vertex within a level or two of
// one another.
type laneIndex struct {
	off  []int32
	lev  []int32
	rows []uint64
}

// index regroups the entries of the vertices in [lo, hi) (a stable counting
// sort by vertex): vertex v's are [off[v−lo], off[v−lo+1]).
func (h *laneHist) index(lo, hi int64) laneIndex {
	n := hi - lo
	ix := laneIndex{off: make([]int32, n+2)}
	// Counted two slots up, so that the prefix sum leaves v's start in off[v+1]
	// and the fill, advancing it to v's end, leaves off[v] holding v's start.
	next := ix.off[1:]
	for _, id := range h.ids {
		if v := int64(id) - lo; uint64(v) < uint64(n) {
			next[v+1]++
		}
	}
	for v := int64(1); v <= n; v++ {
		next[v] += next[v-1]
	}
	w := h.w
	ix.lev, ix.rows = make([]int32, next[n]), make([]uint64, int(next[n])*w)
	for l := int32(0); l < h.levels(); l++ {
		for e := int(h.off[l]); e < int(h.off[l+1]); e++ {
			v := int64(h.ids[e]) - lo
			if uint64(v) >= uint64(n) {
				continue
			}
			t := int(next[v])
			next[v]++
			ix.lev[t] = l
			copy(ix.rows[t*w:(t+1)*w], h.rows[e*w:(e+1)*w])
		}
	}
	ix.off = ix.off[:n+1]
	return ix
}

// lanes returns the lanes that hold v at level l, nil if none does.
func (ix *laneIndex) lanes(v uint32, l int32, w int) []uint64 {
	for t := int(ix.off[v]); t < int(ix.off[v+1]); t++ {
		if ix.lev[t] == l {
			return ix.rows[t*w : (t+1)*w]
		}
	}
	return nil
}

// treeScratch is one rank's state of the sweep's resolution. Candidates are
// smallest-parent-so-far ids stored id+1, so a zeroed array is "none" and
// c−1 wraps "none" to the largest id, which loses every comparison.
type treeScratch struct {
	// cand[delegate·K + lane] is this rank's candidate; after the reduction,
	// within the rank's stripe, the global one.
	cand []uint32
	// ddEdges counts the dd row entries the resolution read on this rank and
	// ndStores the candidates its nd pass wrote (BenchmarkSweepResolve reports
	// them against |Edd| and the visited (normal, lane) pairs).
	ddEdges, ndStores int64
}

// finishSweep resolves and gathers all K queries on this rank. All ranks
// participate: the replay's pair round and the reduce-scatter when parents
// are collected, a barrier when only levels are.
func (e *sweepSession) finishSweep(rank int, comm *mpi.Comm, gpus []*sweepGPU, sc *sweepScratch) {
	k := e.k
	for _, gs := range gpus {
		gs.ix = gs.hist.index(0, gs.pg.NumLocal)
		if e.opts.CollectParents {
			gs.cand = make([]uint32, int(gs.pg.NumLocal)*k)
		}
	}
	lo, hi := e.gatherShare(rank)
	dlo, dhi := e.delegatesIn(lo, hi)
	if e.opts.CollectParents {
		ts := &sc.tree
		ts.cand = make([]uint32, int(e.d)*k)
		e.resolveDelegateLanes(gpus, sc)
		e.replayLanes(rank, comm, gpus)
		comm.ReduceScatterMin(ts.cand, int(dlo)*k, int(dhi)*k)
	} else {
		comm.Barrier()
	}
	e.gatherLanes(lo, hi, dlo, dhi, sc)
}

// delegatesIn returns the range of delegate ids whose global ids lie in the
// gather share [lo, hi) of local slots (global ids [lo·p, hi·p)): dense ids
// ascend with global ids, so it is contiguous.
func (e *sweepSession) delegatesIn(lo, hi int64) (dlo, dhi int64) {
	p64 := int64(e.p)
	at := func(v int64) int64 {
		i, _ := slices.BinarySearch(e.sg.Sep.DelegateGlobal, v)
		return int64(i)
	}
	return at(lo * p64), at(hi * p64)
}

// offer folds id into the candidates of the lanes a & b of the vertex whose
// lane 0 is cands[base].
func offer(cands []uint32, base int, a, b []uint64, id uint32) {
	for j, word := range a {
		word &= b[j]
		for at := base + j*64; word != 0; word &= word - 1 {
			// Always stored: which neighbor is smaller is a coin flip to the
			// branch predictor.
			c := &cands[at+bits.TrailingZeros64(word)]
			*c = min(*c-1, id) + 1
		}
	}
}

// firstHits writes self as the candidate of every (neighbor, lane) in row ×
// from — from being the lanes of one delegate — that todo still holds, strikes
// them off todo and returns how many it wrote. Walked in ascending self, the
// first hit per (neighbor, lane) is the smallest delegate that reaches it, so
// nothing is compared; the neighbor's candidate must be "none" beforehand.
func firstHits(row []uint32, from, todo []uint64, cands []uint32, k int, self uint32) (stores int64) {
	w := len(from)
	for j, f := range from {
		if f == 0 {
			continue
		}
		for _, v := range row {
			hit := f & todo[int(v)*w+j]
			if hit == 0 {
				continue
			}
			todo[int(v)*w+j] &^= hit
			stores += int64(bits.OnesCount64(hit))
			for at := int(v)*k + j*64; hit != 0; hit &= hit - 1 {
				cands[at+bits.TrailingZeros64(hit)] = self
			}
		}
	}
	return stores
}

// resolveDelegateLanes resolves the delegate tier level by level on this
// rank's GPUs: the dd pass, which gives the delegates their delegate parents,
// the nd pass, which gives the local normals theirs, and the normals' offers
// to their delegate children. It leaves the rank's delegate candidates in
// ts.cand, unreduced.
//
// (The tiers' histories have one level per superstep each, so they are equally
// deep.) Level L's delegates are scattered into two d×K matrices (cur: their
// lanes; todo: the lanes still without a dd parent here) and level L's normals
// into each GPU's nxt matrix — empty once the traversal rotated its last
// level — as their todo, so an edge costs one independent load.
func (e *sweepSession) resolveDelegateLanes(gpus []*sweepGPU, sc *sweepScratch) {
	w, k := e.w, e.k
	sep := e.sg.Sep
	ts, hist := &sc.tree, &sc.histD
	cand := ts.cand
	cur, todo := make([]uint64, len(sc.rankD)), sc.rankD
	clear(todo)
	scatter := func(dst []uint64, ids []uint32, rows []uint64) {
		for i, id := range ids {
			copy(dst[int(id)*w:int(id+1)*w], rows[i*w:(i+1)*w])
		}
	}
	unscatter := func(dst []uint64, ids []uint32) {
		for _, id := range ids {
			clear(dst[int(id)*w : int(id+1)*w])
		}
	}
	ts.ddEdges, ts.ndStores = 0, 0
	for l := int32(1); l < hist.levels(); l++ {
		ids, rows := hist.level(l)
		scatter(cur, ids, rows)
		scatter(todo, ids, rows)
		for _, gs := range gpus {
			nids, nrows := gs.hist.level(l)
			scatter(gs.nxt.Words(), nids, nrows)
		}

		// dd and nd: level L−1's delegates in ascending id push into the
		// delegates and the normals one level down, so a (vertex, lane)'s
		// first hit is its smallest delegate parent.
		from, fromRows := hist.level(l - 1)
		for i, di := range from {
			self := uint32(sep.DelegateGlobal[di]) + 1
			lanes := fromRows[i*w : (i+1)*w]
			for _, gs := range gpus {
				if len(ids) > 0 {
					row := gs.pg.DD.Neighbors(int64(di))
					ts.ddEdges += int64(len(row))
					firstHits(row, lanes, todo, cand, k, self)
				}
				ts.ndStores += firstHits(gs.pg.DN.Neighbors(int64(di)), lanes, gs.nxt.Words(), gs.cand, k, self)
			}
		}

		// A level-(L−1) normal is a candidate of its level-L delegate
		// neighbors.
		for _, gs := range gpus {
			pg := gs.pg
			nids, nrows := gs.hist.level(l - 1)
			for i, u := range nids {
				self := uint32(e.cfg.GlobalID(u, pg.Rank, pg.Slot))
				for _, dv := range pg.ND.Neighbors(int64(u)) {
					offer(cand, int(dv)*k, nrows[i*w:(i+1)*w], cur[int(dv)*w:], self)
				}
			}
		}

		unscatter(cur, ids)
		unscatter(todo, ids)
		for _, gs := range gpus {
			nids, _ := gs.hist.level(l)
			unscatter(gs.nxt.Words(), nids)
		}
	}
}

// replayLanes is the nn replay for all lanes: every visited normal vertex
// offers itself, once per level it holds, to its nn neighbors one level down —
// same-GPU neighbors directly, everything else as (destination, level, sender)
// pairs carrying the lanes the sender holds that level in, a w-word lane-set
// column of the pair round (pairRound, exchange.go) that delivers them. On
// return this rank's normal candidates are final.
func (e *sweepSession) replayLanes(rank int, comm *mpi.Comm, gpus []*sweepGPU) {
	w, k := e.w, e.k
	pgpu := e.shape.GPUsPerRank
	p64 := int64(e.p)

	// The bins are sized for an even spread of the pairs the rank can emit (a
	// pair per nn edge per level its tail holds): grown from nothing, a graph
	// without delegates leaves five times its replay behind in discarded
	// backing arrays.
	var most int64
	for _, gs := range gpus {
		nix := &gs.ix
		for slot := int64(0); slot < gs.pg.NumLocal; slot++ {
			most += int64(nix.off[slot+1]-nix.off[slot]) * gs.pg.NN.Degree(slot)
		}
	}
	round := newPairRound(e.shape, frontier.NewPairBins(e.p), w)
	round.presize(int((most + most/8) / int64(e.p)))
	bins, binLanes := round.bins.PerGPU, round.lanes

	pairs := make([]int64, 2*k)
	remote := pairs[k:]
	for _, gs := range gpus {
		pg, nix, ncand := gs.pg, &gs.ix, gs.cand
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			lo, hi := int(nix.off[slot]), int(nix.off[slot+1])
			if lo == hi || pg.NN.Degree(slot) == 0 {
				continue
			}
			uGlobal := e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			var otherGPU, otherRank int64
			for t := lo; t < hi; t++ {
				child := nix.lev[t] + 1
				val := parentPairVal(uGlobal, child)
				mine := nix.rows[t*w : (t+1)*w]
				for _, v := range pg.NN.Neighbors(slot) {
					owner := e.cfg.OwnerGPU(v)
					local := uint32(v / p64)
					if owner == pg.GPU {
						if theirs := nix.lanes(local, child, w); theirs != nil {
							offer(ncand, int(local)*k, mine, theirs, uint32(uGlobal))
						}
						continue
					}
					bins[owner] = append(bins[owner], frontier.Pair{ID: local, Val: val})
					binLanes[owner] = append(binLanes[owner], mine...)
					if t == lo {
						otherGPU++
						if owner/pgpu != rank {
							otherRank++
						}
					}
				}
				// Each lane replays what Run from its source would: u's pairs, once.
				bitmask.RowForEach(mine, func(q int) {
					pairs[q] += otherGPU
					remote[q] += otherRank
				})
			}
		}
	}
	for q := 0; q < k; q++ {
		e.pairCount[q].Add(pairs[q])
		e.pairRemote[q].Add(remote[q])
	}

	c := round.exchange(comm, parentTagBase, e.opts.Compression, func(s int, prs []frontier.Pair, lanes []uint64) {
		for i, pr := range prs {
			gs := gpus[s]
			if mine := gs.ix.lanes(pr.ID, int32(pr.Val&(1<<parentLevelBits-1)), w); mine != nil {
				offer(gs.cand, int(pr.ID)*k, lanes[i*w:(i+1)*w], mine, uint32(pr.Val>>parentLevelBits))
			}
		}
	})
	e.pairWire.Add(c.sent)
}

// gatherBlock is how many lanes the gather writes side by side: a vertex's K
// entries go to K result arrays, so a block of lanes at a time, walking the
// ids in order, writes two sequential streams per lane (levels and parents).
// Measured on RMAT 16, 16 GPUs, K = 64: 16 and 64 lanes time alike.
const gatherBlock = 16

// gatherLanes writes this rank's share of the K result arrays, every entry
// exactly once (they come zeroed, not pre-filled): global ids [lo·p, hi·p),
// that is local slots [lo, hi) of every GPU, from the GPU's visited rows, lane
// index and candidates — or, at a delegate, from the rank's replicated
// delegate tier and its reduced stripe of candidates, the delegates [dlo,
// dhi). Past the reduction's last rendezvous (or the barrier) every GPU's
// resolution is final; RunRanks joins all ranks before the session is
// released, so nothing orders the reads behind the gather.
func (e *sweepSession) gatherLanes(lo, hi, dlo, dhi int64, sc *sweepScratch) {
	k := e.k
	ts, sep := &sc.tree, e.sg.Sep
	p64 := int64(e.p)
	byRes := make([]*sweepGPU, e.p)
	for res := range byRes {
		byRes[res] = e.gpus[e.cfg.OwnerGPU(int64(res))]
	}
	dix := sc.histD.index(dlo, dhi)
	for q := 0; q < k; q += gatherBlock {
		lanes := laneBlock{j: q / 64, base: q / 64 * 64, mask: (uint64(1)<<min(gatherBlock, k-q) - 1) << (q % 64)}
		for slot := lo; slot < hi; slot++ {
			for res, gs := range byRes {
				if slot >= gs.pg.NumLocal {
					continue
				}
				v := slot*p64 + int64(res)
				if di := int64(sep.DelegateID[v]); di >= 0 {
					if !e.putVertex(v, lanes, sc.visD.Row(di), &dix, di-dlo, candsOf(ts.cand, di, k)) {
						panicNoCandidate(di)
					}
					continue
				}
				// Whatever edge discovered a vertex was covered by the nd
				// pass, the same-GPU nn fold or the remote nn replay.
				if !e.putVertex(v, lanes, gs.vis.Row(slot), &gs.ix, slot, candsOf(gs.cand, slot, k)) {
					panicMissingParent(v, gs.pg.GPU)
				}
			}
		}
	}
}

// laneBlock is the lanes a gather pass writes: mask, a set within word j of a
// lane set, whose bit 0 is lane base.
type laneBlock struct {
	j, base int
	mask    uint64
}

// candsOf returns the candidates of vertex at, lane 0 first, of cands (nil
// when parents are not collected).
func candsOf(cands []uint32, at int64, k int) []uint32 {
	if cands == nil {
		return nil
	}
	return cands[at*int64(k):]
}

// putVertex writes vertex v's results in the lanes of b: unvisited where vis,
// its visited row, lacks the lane, and each level its index entries at at
// hold, with cands, its candidates. It reports false if a lane holds no
// candidate.
func (e *sweepSession) putVertex(v int64, b laneBlock, vis []uint64, ix *laneIndex, at int64, cands []uint32) bool {
	w := e.w
	e.put(v, -1, ^vis[b.j]&b.mask, b.base, nil)
	for t := int(ix.off[at]); t < int(ix.off[at+1]); t++ {
		if !e.put(v, ix.lev[t], ix.rows[t*w+b.j]&b.mask, b.base, cands) {
			return false
		}
	}
	return true
}

// put writes vertex v's level l — -1: unvisited — and its parent into the
// results of the lanes set in lanes, a word whose bit 0 is lane base. The
// parent of a root is itself (only a source sits at level 0), of a vertex
// below it its candidate in cands (the vertex's, lane 0 first; nil when
// parents are not collected). It reports false if a lane holds no candidate.
func (e *sweepSession) put(v int64, l int32, lanes uint64, base int, cands []uint32) bool {
	for ; lanes != 0; lanes &= lanes - 1 {
		q := base + bits.TrailingZeros64(lanes)
		out := &e.outs[q]
		if out.levels != nil {
			out.levels[v] = l
		}
		if out.parents == nil {
			continue
		}
		par := int64(-1)
		if l == 0 {
			par = v
		} else if l > 0 {
			if cands[q] == 0 {
				return false
			}
			par = int64(cands[q] - 1)
		}
		out.parents[v] = par
	}
	return true
}
