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
//     matrix. dd pass: level L−1's delegates in ascending id against their dd
//     rows; from & todo(dv) are the lanes dv still wants a parent in, and
//     because dense delegate ids ascend with global ids (partition.Separate)
//     the FIRST hit per (delegate, lane) is the minimum — written once, struck
//     off todo, never compared. A dd row is read once per distinct level its
//     delegate holds across all lanes, not once per lane. nd pass: level L−1's
//     normals offer themselves to their level-L delegate neighbors, level L's
//     normals take their smallest level-(L−1) delegate neighbor.
//   - Reduction: a rank's candidates for the d·K (delegate, lane) pairs are
//     uint32 (a sweep that collects parents needs vertex ids below 2^32−1: as
//     int64 they would be the sweep's largest allocation), and meet in one
//     min-reduce per stripe of the delegate directory, whose owner keeps it.
//   - nn replay: one pair round whose pairs carry the sender's lane set (the
//     round's lane-set column, a mask section behind each pairs block on the
//     wire); the receiver finds "v's lanes at level L" in the history
//     regrouped by vertex (laneIndex).
//   - Gather: candidates are staged per (slot, lane), K lanes of a vertex side
//     by side, because the K result arrays are the other way round; they, the
//     levels and the unvisited -1s are written out last, a block of lanes at a
//     time in slot order, every entry once.
//
// Like the single tree, none of this is on the modelled clock.

import (
	"math/bits"

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

// laneIndex is a laneHist regrouped by vertex: vertex v's entries, in
// ascending level, are [off[v], off[v+1]) — usually two or three, because the
// lanes of a sweep reach a vertex within a level or two of one another.
type laneIndex struct {
	off  []int32
	lev  []int32
	rows []uint64
}

// index regroups the history of n vertices (a stable counting sort by vertex).
func (h *laneHist) index(n int64) laneIndex {
	ix := laneIndex{off: make([]int32, n+2), lev: make([]int32, len(h.ids)), rows: make([]uint64, len(h.rows))}
	// Counted two slots up, so that the prefix sum leaves v's start in off[v+1]
	// and the fill, advancing it to v's end, leaves off[v] holding v's start.
	next := ix.off[1:]
	for _, id := range h.ids {
		next[id+1]++
	}
	for v := int64(1); v <= n; v++ {
		next[v] += next[v-1]
	}
	w := h.w
	for l := int32(0); l < h.levels(); l++ {
		for e := int(h.off[l]); e < int(h.off[l+1]); e++ {
			t := int(next[h.ids[e]])
			next[h.ids[e]]++
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
	nix   []laneIndex // per local GPU, its normal history by slot
	ncand [][]uint32  // per local GPU: slot·K + lane → candidate
	// cand[delegate·K + lane] is this rank's candidate; after the reduction,
	// within the rank's stripe, the global one.
	cand []uint32
	// ddEdges counts the dd row entries the resolution read on this rank
	// (BenchmarkSweepResolve reports it against |Edd|).
	ddEdges int64
}

// finishSweep resolves and gathers all K queries on this rank. All ranks
// participate (collectives inside).
func (e *sweepSession) finishSweep(rank int, comm *mpi.Comm, gpus []*sweepGPU, sc *sweepScratch) {
	ts := &sc.tree
	ts.nix = make([]laneIndex, len(gpus))
	if e.opts.CollectParents {
		ts.ncand = make([][]uint32, len(gpus))
		ts.cand = make([]uint32, int(e.d)*e.k)
	}
	for s, gs := range gpus {
		ts.nix[s] = gs.hist.index(gs.pg.NumLocal)
		if ts.ncand != nil {
			ts.ncand[s] = make([]uint32, int(gs.pg.NumLocal)*e.k)
		}
	}
	if e.opts.CollectParents {
		if e.d > 0 {
			e.resolveDelegateLanes(rank, comm, gpus, sc)
		}
		e.replayLanes(rank, comm, gpus, ts)
	}
	e.gatherLanes(rank, gpus, sc)
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

// resolveDelegateLanes resolves the delegate tier level by level on this
// rank's GPUs — the dd pass, and the nd pass, which also offers the local
// normal vertices their delegate parents — then reduces the delegates'
// candidates stripe by stripe, keeping its own stripe's in ts.cand.
//
// (The tiers' histories have one level per superstep each, so they are equally
// deep.) Level L's delegates are scattered into d×K matrices (cur: their
// lanes; todo: the lanes still without a dd parent here) so an edge costs one
// independent load; prev is level L−1's.
func (e *sweepSession) resolveDelegateLanes(rank int, comm *mpi.Comm, gpus []*sweepGPU, sc *sweepScratch) {
	w, k := e.w, e.k
	sep := e.sg.Sep
	ts, hist := &sc.tree, &sc.histD
	cand := ts.cand
	prev, cur, todo := make([]uint64, len(sc.rankD)), make([]uint64, len(sc.rankD)), sc.rankD
	clear(todo)
	scatter := func(dst []uint64, l int32) {
		ids, rows := hist.level(l)
		for i, di := range ids {
			copy(dst[int(di)*w:int(di+1)*w], rows[i*w:(i+1)*w])
		}
	}
	unscatter := func(dst []uint64, l int32) {
		ids, _ := hist.level(l)
		for _, di := range ids {
			clear(dst[int(di)*w : int(di+1)*w])
		}
	}
	ts.ddEdges = 0
	scatter(prev, 0)
	for l := int32(1); l < hist.levels(); l++ {
		scatter(cur, l)
		scatter(todo, l)

		// dd: level L−1's delegates in ascending id against their dd rows, so
		// every hit is the first for its (delegate, lane), hence the smallest.
		if ids, _ := hist.level(l); len(ids) > 0 {
			from, fromRows := hist.level(l - 1)
			for i, di := range from {
				self := uint32(sep.DelegateGlobal[di]) + 1
				for _, gs := range gpus {
					row := gs.pg.DD.Neighbors(int64(di))
					ts.ddEdges += int64(len(row))
					for j, f := range fromRows[i*w : (i+1)*w] {
						if f == 0 {
							continue
						}
						for _, dv := range row {
							hit := f & todo[int(dv)*w+j]
							if hit == 0 {
								continue
							}
							todo[int(dv)*w+j] &^= hit
							for at := int(dv)*k + j*64; hit != 0; hit &= hit - 1 {
								cand[at+bits.TrailingZeros64(hit)] = self
							}
						}
					}
				}
			}
		}

		// nd: a level-(L−1) normal is a candidate of its level-L delegate
		// neighbors; a level-L normal takes its smallest level-(L−1) delegate
		// neighbor.
		for s, gs := range gpus {
			pg, ncand := gs.pg, ts.ncand[s]
			ids, rows := gs.hist.level(l - 1)
			for i, u := range ids {
				self := uint32(e.cfg.GlobalID(u, pg.Rank, pg.Slot))
				for _, dv := range pg.ND.Neighbors(int64(u)) {
					offer(cand, int(dv)*k, rows[i*w:(i+1)*w], cur[int(dv)*w:], self)
				}
			}
			ids, rows = gs.hist.level(l)
			for i, u := range ids {
				for _, dv := range pg.ND.Neighbors(int64(u)) {
					offer(ncand, int(u)*k, rows[i*w:(i+1)*w], prev[int(dv)*w:], uint32(sep.DelegateGlobal[dv]))
				}
			}
		}

		unscatter(prev, l-1)
		unscatter(todo, l)
		prev, cur = cur, prev
	}

	// One min-reduce per stripe of the directory; the owner keeps the result.
	prank := e.shape.Ranks()
	win := make([]int64, (e.d/int64(prank)+1)*int64(k))
	for r := 0; r < prank; r++ {
		lo, hi := e.delegateStripe(r)
		stripe := cand[int(lo)*k : int(hi)*k]
		buf := win[:len(stripe)]
		for i, c := range stripe {
			buf[i] = int64(c - 1)
		}
		comm.AllreduceMin(buf)
		if r == rank {
			for i, c := range buf {
				stripe[i] = uint32(c) + 1
			}
		}
	}
}

// replayLanes is the nn replay for all lanes: every visited normal vertex
// offers itself, once per level it holds, to its nn neighbors one level down —
// same-GPU neighbors directly, everything else as (destination, level, sender)
// pairs carrying the lanes the sender holds that level in, a w-word lane-set
// column of the pair round (pairRound, exchange.go) that delivers them. On
// return this rank's normal candidates are final.
func (e *sweepSession) replayLanes(rank int, comm *mpi.Comm, gpus []*sweepGPU, ts *treeScratch) {
	w, k := e.w, e.k
	pgpu := e.shape.GPUsPerRank
	p64 := int64(e.p)

	// The bins are sized for an even spread of the pairs the rank can emit (a
	// pair per nn edge per level its tail holds): grown from nothing, a graph
	// without delegates leaves five times its replay behind in discarded
	// backing arrays.
	var most int64
	for s, gs := range gpus {
		nix := &ts.nix[s]
		for slot := int64(0); slot < gs.pg.NumLocal; slot++ {
			most += int64(nix.off[slot+1]-nix.off[slot]) * gs.pg.NN.Degree(slot)
		}
	}
	round := newPairRound(e.shape, frontier.NewPairBins(e.p), w)
	round.presize(int((most + most/8) / int64(e.p)))
	bins, binLanes := round.bins.PerGPU, round.lanes

	pairs := make([]int64, 2*k)
	remote := pairs[k:]
	for s, gs := range gpus {
		pg, nix, ncand := gs.pg, &ts.nix[s], ts.ncand[s]
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
			if mine := ts.nix[s].lanes(pr.ID, int32(pr.Val&(1<<parentLevelBits-1)), w); mine != nil {
				offer(ts.ncand[s], int(pr.ID)*k, lanes[i*w:(i+1)*w], mine, uint32(pr.Val>>parentLevelBits))
			}
		}
	})
	e.pairWire.Add(c.sent)
}

// gatherBlock is how many lanes the gather writes side by side. The K result
// arrays are indexed by global id, so one GPU's slots sit p entries apart in
// each: writing a vertex's K entries at once is K scattered stores, while a
// block of lanes at a time, walking the slots in order, is a few strided
// streams the hardware prefetches (and a rank's GPUs, walked together, share
// lines). Measured on RMAT 16, 16 GPUs, K = 64: 16 lanes beat 4, 8, 32 and 64.
const gatherBlock = 16

// gatherLanes writes this rank's share of the K result arrays, every entry
// exactly once (they come zeroed, not pre-filled): its GPUs' normal slots from
// the visited matrix and the index, and its stripe of the replicated delegate
// directory, whose home slots the normal pass skips.
func (e *sweepSession) gatherLanes(rank int, gpus []*sweepGPU, sc *sweepScratch) {
	w, k := e.w, e.k
	ts, sep := &sc.tree, e.sg.Sep
	var slots int64
	for _, gs := range gpus {
		slots = max(slots, gs.pg.NumLocal)
	}
	lo, hi := e.delegateStripe(rank)
	for q := 0; q < k; q += gatherBlock {
		j, base := q/64, q/64*64
		block := (uint64(1)<<min(gatherBlock, k-q) - 1) << (q % 64)

		for slot := int64(0); slot < slots; slot++ {
			for s, gs := range gpus {
				pg := gs.pg
				if slot >= pg.NumLocal {
					continue
				}
				v := e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
				if sep.DelegateID[v] >= 0 {
					continue
				}
				e.put(v, -1, ^gs.vis.Row(slot)[j]&block, base, nil)
				var cands []uint32
				if ts.ncand != nil {
					cands = ts.ncand[s][int(slot)*k:]
				}
				nix := &ts.nix[s]
				for t := int(nix.off[slot]); t < int(nix.off[slot+1]); t++ {
					// Whatever edge discovered a vertex was covered by the nd
					// pass, the same-GPU nn fold or the remote nn replay.
					if !e.put(v, nix.lev[t], nix.rows[t*w+j]&block, base, cands) {
						panicMissingParent(v, pg.GPU)
					}
				}
			}
		}

		for l := int32(0); l < sc.histD.levels(); l++ {
			ids, rows := sc.histD.level(l)
			for i, id := range ids {
				di := int64(id)
				if di < lo || di >= hi {
					continue
				}
				var cands []uint32
				if ts.cand != nil {
					cands = ts.cand[int(di)*k:]
				}
				if !e.put(sep.DelegateGlobal[di], l, rows[i*w+j]&block, base, cands) {
					panicNoCandidate(di)
				}
			}
		}
		for di := lo; di < hi; di++ {
			e.put(sep.DelegateGlobal[di], -1, ^sc.visD.Row(di)[j]&block, base, nil)
		}
	}
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
