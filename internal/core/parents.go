package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"gcbfs/internal/frontier"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/wire"
)

// Canonical BFS-tree construction (paper §VI-A3). The paper outputs hop
// distances and argues a tree costs little extra: "only the destination
// vertices of nn edges, without possible delegate parents, would need to
// communicate their parent information at the end of BFS". This file goes one
// step further than recording discovery-order parents: EVERY parent —
// delegate or normal, local or remote — is resolved after the traversal as
// the minimum global id among the vertex's neighbors exactly one level
// closer. The tree is therefore a pure function of the hop distances: any
// traversal that produces the same levels (any exchange strategy, any kernel
// direction schedule, and crucially the multi-source shared sweep) yields a
// bit-identical tree.
//
// A direction-optimised traversal skips most edges (§IV-B), so the resolution
// must not scan them all afterwards either. It applies the same idea to the
// tree:
//
//  1. Level volumes: from the replicated delegate directory every rank sums
//     DelegateOutDeg per BFS level, O(d + depth), no communication.
//  2. Per-level direction: the tree edges between levels L−1 and L are found
//     either by PULL (rows of level L look up for their smallest neighbor)
//     or by PUSH (rows of level L−1 offer themselves to their neighbors one
//     level down), whichever side has the smaller volume. Both give the same
//     minimum because each GPU's dd subgraph is symmetric — partition.Route
//     sends u→v and v→u to the same GPU (the lower-out-degree endpoint's
//     owner) — and because dense delegate ids ascend with global ids
//     (partition.Separate), so the smallest delegate id IS the smallest
//     global id and dd candidates stay uint32 until the reduction.
//  3. Fused dd pass: one visit per selected dd row serves its pull (up) and
//     its push (down); rows neither pair needs are never read. Neighbor
//     levels are looked up as one-byte tags (level mod 255): the hop
//     distances across an edge differ by at most one, so the residues of
//     l−1, l and l+1 cannot collide, and d bytes stay cache-resident where
//     4·d do not.
//  4. nd pass: each GPU's ND is the co-located transpose of its DN (Route
//     sends both directions of a delegate–normal edge to the normal's
//     owner), so one scan over NDSources yields both a normal's smallest
//     delegate parent and a delegate's smallest local normal parent. The
//     delegate candidates then meet in an int64 min-allreduce, so all ranks
//     agree deterministically.
//  5. nn replay: each GPU replays its outgoing nn edges once, sending
//     (destLocal, senderLevel+1, senderGlobal) pairs; receivers fold the
//     smallest valid candidate. Volume ≤ |Enn| pairs, run once — the
//     paper's "low cost" claim. With a codec active the sender radix-sorts
//     each outgoing pair bin in place into the codec's canonical (ID, Val)
//     order — the bins are its own and are reset by the next replay — and
//     encodes them presorted; with the codec off they ship as generated,
//     in raw pair blocks charged 12 bytes per pair — one wire format and
//     one decoder whatever the mode.
//
// Every rank then writes its own GPUs' slots and a stripe of the delegate
// directory straight into the query's global output arrays (gatherRank).
//
// Steps 1–5 are one tree's, from the level arrays a single-source traversal
// leaves behind (Run, RunRepair). A K-source sweep keeps no level arrays, only
// its frontier history — per level, which lanes first reached which vertex —
// and resolves its K trees from that at once (sweep_tree.go), the tree edges
// between two levels being word operations on lane sets, not per-lane
// compares, and its dd pass needing neither a direction nor a comparison: it
// walks a level's delegates in ascending id, and since dense ids ascend with
// global ids (2 above) the FIRST delegate to reach a (neighbor, lane) is the
// smallest. The two resolvers share the contract and what enforces it — the
// replay pair's packing, the delegate stripes, the missing-parent panics — and
// the replay's wire format, whose pairs carry a lane set in a sweep.
//
// Resolution traffic is reported (ParentPairs) but excluded from simulated
// BFS time, matching the paper's reporting of distance-only timings.

// parentLevelBits packs the sender's claimed child level into the LOW bits
// of a pair value with the parent global id above it. Low-bits level keeps
// the value small as an integer, so the pairs codec's uvarint values shrink
// with graph size instead of always paying for the high level bits. Vertex
// ids must stay below 2^44 (far above the paper's scale 40 ceiling) and BFS
// depth below 2^20 (far above the §VI-D long-tail graphs' hundreds of
// iterations).
const parentLevelBits = 20

// parentTagBase is the message tag of the resolution exchange, outside the
// iteration tag space. A traversal has one such exchange — a sweep's replay
// carries all K lanes in it — so the tag needs no offset.
const parentTagBase = 1 << 30

// parentPairVal packs a replay pair's value: sender uGlobal claiming the
// child level childLevel.
func parentPairVal(uGlobal int64, childLevel int32) uint64 {
	if childLevel >= 1<<parentLevelBits {
		panic(fmt.Sprintf("core: BFS level %d exceeds the pairs-codec ceiling", childLevel-1))
	}
	if uGlobal >= 1<<(64-parentLevelBits) {
		panic(fmt.Sprintf("core: vertex id %d exceeds the pairs-codec ceiling", uGlobal))
	}
	return uint64(uGlobal)<<parentLevelBits | uint64(childLevel)
}

// delegateStripe is the range of the replicated delegate directory whose
// results rank writes.
func (pe *planEnv) delegateStripe(rank int) (lo, hi int64) {
	prank := int64(pe.shape.Ranks())
	return pe.d * int64(rank) / prank, pe.d * int64(rank+1) / prank
}

// The resolution's invariants: every visited normal vertex below the root
// has a parent once the nd pass, the same-GPU nn fold and the remote nn
// replay have run — whatever edge discovered it was covered by one of them —
// and every visited delegate a candidate once the dd and nd passes have.
func panicMissingParent(v int64, gpu int) {
	panic(fmt.Sprintf("core: vertex %d on GPU %d missing parent after resolution", v, gpu))
}

func panicNoCandidate(di int64) {
	panic(fmt.Sprintf("core: visited delegate %d has no parent candidate", di))
}

// noLevel is a level no vertex holds (unvisited is -1); noDelegate and
// noParent are the empty dd and reduced candidates.
const (
	noLevel    int32  = -2
	noDelegate uint32 = math.MaxUint32
	noParent   int64  = math.MaxInt64
)

// treeOut is a query's gathered result: global-id-indexed arrays shared by
// all rank goroutines, each of which writes a disjoint set of elements. A nil
// array is not collected.
type treeOut struct {
	levels  []int32
	parents []int64
}

// newTreeOut allocates the arrays the options collect for an n-vertex graph
// (on the caller goroutine, before the ranks that fill them start).
func newTreeOut(opts *Options, n int64) treeOut {
	var out treeOut
	if opts.CollectLevels {
		out.levels = make([]int32, n)
	}
	if opts.CollectParents {
		out.parents = make([]int64, n)
	}
	return out
}

// parentScratch is the per-rank reusable state of one resolution pass; all of
// it is O(d + depth) or sized by the replay's own traffic.
type parentScratch struct {
	vol  []int64  // level → Σ DelegateOutDeg of the delegates on it
	push []bool   // level L → pair (L−1, L) is resolved by push
	tag  []uint8  // delegate id → levelTag of its level, noTag unvisited
	dd   []uint32 // delegate id → smallest dd parent (delegate id)
	cand []int64  // delegate id → smallest parent global id; reduced
	// ddEdges counts the dd row entries the last resolution read on this
	// rank (BenchmarkResolveParents reports it against |Edd|).
	ddEdges int64

	bins     *frontier.PairBins
	sortBuf  []frontier.Pair   // radix scatter buffer of the replay's in-place bin sort; grows to the largest bin
	payloads [][]byte          // per destination rank, retained by the receiver until the gather barrier
	arrivals [][]frontier.Pair // per local slot, decode target
}

// finishQuery finishes this Session's query on one rank: the canonical parent
// resolution when parents are collected, then the gather of this rank's share
// of the result. All ranks participate (collectives inside).
func (e *Session) finishQuery(rank int, comm *mpi.Comm, source int64) {
	ps := &e.scratch[rank].parents
	if e.out.parents != nil {
		if e.d > 0 {
			e.resolveDelegateTier(rank, source, ps)
			comm.AllreduceMin(ps.cand)
		}
		e.replayNN(rank, comm, ps)
	}
	e.gatherRank(rank, comm, ps)
}

// treeDirections computes the level volumes (and level tags) of one
// delegate-level replica and from the volumes each level pair's direction:
// push[L] reports that the tree edges into level L are found from the rows
// of level L−1. Ties go to push
// (equal edge volume, and the earlier level of a BFS is the one with fewer
// rows). push has one entry past the deepest level, false, so the deepest
// rows never push; push[0] is true so the root never pulls. Every rank
// derives the identical answer from the replicated directory.
func (ps *parentScratch) treeDirections(dLevel []int32, outDeg []int64) []bool {
	vol := ps.vol[:0]
	if cap(ps.tag) < len(dLevel) {
		ps.tag = make([]uint8, len(dLevel))
	}
	tag := ps.tag[:len(dLevel)]
	for di, l := range dLevel {
		if l < 0 {
			tag[di] = noTag
			continue
		}
		tag[di] = levelTag(l)
		for int(l) >= len(vol) {
			vol = append(vol, 0)
		}
		vol[l] += outDeg[di]
	}
	ps.vol = vol
	push := append(ps.push[:0], true)
	for l := 1; l < len(vol); l++ {
		push = append(push, vol[l-1] <= vol[l])
	}
	push = append(push, false)
	ps.push = push
	return push
}

// levelTag is a level's one-byte stand-in; noTag marks an unvisited delegate.
const noTag = 255

func levelTag(l int32) uint8 { return uint8(l % noTag) }

// missMask is all ones unless a == b, so id|missMask(…) drops out of a min.
func missMask(a, b uint8) uint32 { return uint32(int32(-uint32(a^b)) >> 31) }

// ddPass folds one GPU's non-empty dd rows into cand (delegate id → smallest
// delegate id one level up) and returns the row entries read. A row at level
// l pulls for itself when pair (l−1, l) is a pull and offers itself to its
// level-l+1 neighbors when pair (l, l+1) is a push. The pull's compare is
// arithmetic: a neighbor's level is a coin flip to the branch predictor.
func ddPass(pg *partition.GPUGraph, dLevel []int32, tag []uint8, push []bool, cand []uint32) int64 {
	var scanned int64
	offs, cols := pg.DD.RowOffsets, pg.DD.Cols
	for wi, word := range pg.DDSourceMask.Words() {
		for ; word != 0; word &= word - 1 {
			di := wi*64 + bits.TrailingZeros64(word)
			l := dLevel[di]
			if l < 0 {
				continue
			}
			pull, pushDown := !push[l], push[l+1]
			if !pull && !pushDown {
				continue
			}
			row := cols[offs[di]:offs[di+1]]
			scanned += int64(len(row))
			if pull {
				best := cand[di]
				up := levelTag(l - 1)
				for _, dv := range row {
					best = min(best, dv|missMask(tag[dv], up))
				}
				cand[di] = best
			}
			if pushDown {
				self := uint32(di)
				down := levelTag(l + 1)
				for _, dv := range row {
					cand[dv] = min(cand[dv], self|missMask(tag[dv], down))
				}
			}
		}
	}
	return scanned
}

// resolveDelegateTier fills ps.cand with this rank's smallest parent
// candidate per delegate (noParent where it has none): the direction-
// optimised dd pass, then the nd pass, which also seeds the local normal
// vertices' delegate parents.
func (e *Session) resolveDelegateTier(rank int, source int64, ps *parentScratch) {
	sep := e.sg.Sep
	gpus := e.rankGPUs(rank)
	dLevel := gpus[0].delegateLevel // one replica serves the rank: they are identical
	push := ps.treeDirections(dLevel, e.sg.DelegateOutDeg)

	if cap(ps.dd) < int(e.d) {
		ps.dd = make([]uint32, e.d)
		ps.cand = make([]int64, e.d)
	}
	dd, cand := ps.dd[:e.d], ps.cand[:e.d]
	for i := range dd {
		dd[i] = noDelegate
	}
	ps.ddEdges = 0
	for _, gs := range gpus {
		ps.ddEdges += ddPass(gs.pg, dLevel, ps.tag, push, dd)
	}
	for di, c := range dd {
		cand[di] = noParent
		if c != noDelegate {
			cand[di] = sep.DelegateGlobal[c]
		}
	}
	if di := sep.DelegateID[source]; di >= 0 {
		// Only the source sits at level 0: it is its own parent.
		cand[di] = source
	}

	for _, gs := range gpus {
		pg, levels, parents := gs.pg, gs.levels, gs.parents
		for _, u := range pg.NDSources {
			lu := levels[u]
			if lu < 0 {
				continue
			}
			up := lu - 1
			if lu == 0 {
				up = noLevel // -1 is "unvisited", not a level
			}
			uGlobal := e.cfg.GlobalID(u, pg.Rank, pg.Slot)
			best := noDelegate
			for _, dv := range pg.ND.Neighbors(int64(u)) {
				ld := dLevel[dv]
				if ld == up {
					best = min(best, dv)
				}
				if ld == lu+1 && uGlobal < cand[dv] {
					cand[dv] = uGlobal
				}
			}
			if best != noDelegate {
				parents[u] = sep.DelegateGlobal[best]
			}
		}
	}
}

// replayNN folds the nn candidates into the local parent arrays: same-GPU
// edges directly, everything else through the remote replay exchange. On
// return this rank's parent rows are final.
func (e *Session) replayNN(rank int, comm *mpi.Comm, ps *parentScratch) {
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	p64 := int64(e.p)
	mode := e.opts.Compression
	gpus := e.rankGPUs(rank)

	if ps.bins == nil {
		ps.bins = frontier.NewPairBins(e.p)
		ps.payloads = make([][]byte, prank)
		ps.arrivals = make([][]frontier.Pair, pgpu)
	} else {
		ps.bins.Reset()
	}
	bins := ps.bins
	var pairs int64
	for _, gs := range gpus {
		pg, levels, parents := gs.pg, gs.levels, gs.parents

		// Replay outgoing nn edges once, claiming child level = my level + 1;
		// same-GPU destinations fold directly, everything else (same-rank
		// peers included) goes through the pair bins.
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			lvl := levels[slot]
			if lvl == 0 {
				// The root: a normal source is its own parent.
				parents[slot] = e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			}
			if lvl < 0 || pg.NN.Degree(slot) == 0 {
				continue
			}
			uGlobal := e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			childLevel := lvl + 1
			val := parentPairVal(uGlobal, childLevel)
			for _, v := range pg.NN.Neighbors(slot) {
				owner := e.cfg.OwnerGPU(v)
				if owner == pg.GPU {
					lv := uint32(v / p64)
					if levels[lv] == childLevel {
						if cur := parents[lv]; cur == -1 || uGlobal < cur {
							parents[lv] = uGlobal
						}
					}
					continue
				}
				bins.Add(owner, uint32(v/p64), val)
				pairs++
			}
		}
	}
	atomic.AddInt64(&e.parentExchangePairs, pairs)

	accept := func(levels []int32, parents []int64, prs []frontier.Pair) {
		for _, pr := range prs {
			childLevel := int32(pr.Val & (1<<parentLevelBits - 1))
			if levels[pr.ID] != childLevel {
				continue
			}
			parent := int64(pr.Val >> parentLevelBits)
			if cur := parents[pr.ID]; cur == -1 || parent < cur {
				parents[pr.ID] = parent
			}
		}
	}

	// Intra-rank pairs apply directly; inter-rank pairs route through the
	// same codec policy as the frontier exchange: sorted where they are born
	// when a codec is active, raw blocks in bin order charged 12 bytes per
	// pair when compression is off. The volume is reported in WireStats but,
	// like the rest of the resolution round, excluded from simulated BFS time.
	// Payload buffers are reused per destination: the receiver holds the
	// slice only until it has decoded it, which is before gatherRank's
	// barrier, and the next resolution on this scratch starts after it.
	var rawBytes, wireBytes int64
	codec := mode != wire.ModeOff
	for dst := 0; dst < prank; dst++ {
		slots := bins.PerGPU[dst*pgpu : (dst+1)*pgpu]
		if dst == rank {
			for s, prs := range slots {
				accept(gpus[s].levels, gpus[s].parents, prs)
			}
			continue
		}
		if codec {
			for _, prs := range slots {
				frontier.SortPairs(prs, &ps.sortBuf)
			}
		}
		payload, st := wire.AppendPairsRank(ps.payloads[dst][:0], slots, nil, 0, mode, codec)
		rawBytes += st.RawBytes
		wireBytes += st.EncodedBytes
		ps.payloads[dst] = payload
		comm.Isend(dst, parentTagBase, payload)
	}
	atomic.AddInt64(&e.parentPairRawBytes, rawBytes)
	atomic.AddInt64(&e.parentPairWireBytes, wireBytes)
	for src := 0; src < prank; src++ {
		if src == rank {
			continue
		}
		buf := comm.Recv(src, parentTagBase)
		if err := wire.DecodePairsRankInto(buf, ps.arrivals, nil, 0); err != nil {
			panic(fmt.Errorf("core: corrupt parent payload: %w", err))
		}
		for s, prs := range ps.arrivals {
			accept(gpus[s].levels, gpus[s].parents, prs)
		}
	}
}

// gatherRank writes this rank's share of the query's global arrays: its own
// GPUs' slots (every global id is exactly one (gpu, slot), so unvisited slots
// write their -1 and no prefill is needed), then — after a barrier, because a
// delegate's home slot holds -1 and belongs to another rank's pass — its
// stripe of the replicated delegate directory. The barrier also closes the
// resolution: past it every replay payload has been decoded.
func (e *Session) gatherRank(rank int, comm *mpi.Comm, ps *parentScratch) {
	p, out := e.p, e.out
	gpus := e.rankGPUs(rank)
	for _, gs := range gpus {
		pg, levels := gs.pg, gs.levels
		v := int(e.cfg.Residue(pg.Rank, pg.Slot))
		if out.levels != nil {
			for slot, lvl := range levels {
				out.levels[v+slot*p] = lvl
			}
		}
		if out.parents == nil {
			continue
		}
		for slot, par := range gs.parents {
			if par == -1 && levels[slot] >= 1 {
				panicMissingParent(int64(v+slot*p), pg.GPU)
			}
			out.parents[v+slot*p] = par
		}
	}
	comm.Barrier()

	lo, hi := e.delegateStripe(rank)
	dLevel := gpus[0].delegateLevel
	for di := lo; di < hi; di++ {
		v := e.sg.Sep.DelegateGlobal[di]
		lvl := dLevel[di]
		if out.levels != nil {
			out.levels[v] = lvl
		}
		if out.parents == nil {
			continue
		}
		par := ps.cand[di]
		if par == noParent {
			if lvl >= 0 {
				panic(fmt.Sprintf("core: visited delegate %d has no parent candidate", di))
			}
			par = -1
		}
		out.parents[v] = par
	}
}
