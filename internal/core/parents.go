package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"gcbfs/internal/frontier"
	"gcbfs/internal/partition"
)

// Canonical BFS-tree construction (paper §VI-A3). The paper outputs hop
// distances and argues a tree costs little extra: "only the destination
// vertices of nn edges, without possible delegate parents, would need to
// communicate their parent information at the end of BFS". This file goes one
// step further than recording discovery-order parents: EVERY parent —
// delegate or normal, local or remote — is the minimum global id among the
// vertex's neighbors exactly one level closer, resolved after the traversal
// or, for a delegate's dd parents in a cold run, folded as the kernels scan.
// The tree is therefore a pure function of the hop distances: any traversal
// that produces the same levels (any exchange strategy, any kernel direction
// schedule, and crucially the multi-source shared sweep) yields a
// bit-identical tree.
//
// A direction-optimised traversal skips most edges (§IV-B), so the resolution
// must not scan them all afterwards either. A cold traversal that collects
// parents does not read its dd rows again at all (step 0). A repair's wave
// records nothing, so its full resolution applies the traversal's own idea to
// the tree instead (steps 1–3); steps 4 and 5 serve both:
//
//  0. Recorded dd candidates: while a cold query that collects parents runs,
//     each GPU's dd kernel folds every delegate it visits into the rank's
//     candidates (parentScratch.cand, the tier's rec). A forward kernel
//     queues every delegate one level up with a dd row on the GPU, in
//     ascending id, and folds each proposer into the delegate it proposes. A
//     backward kernel stops at the first visited neighbor of an unvisited
//     delegate, which can only be one level up — one more and the delegate
//     would be visited already — so that hit and every visited id past it are
//     the delegate's dd parents on the GPU; the rest of the row is scanned
//     branch-free (minVisited). A rank's GPUs fold into its one array in turn.
//     The tail a backward scan reads past its first hit is not counted: the
//     kernels' edges, and with them the modelled clock, are a levels-only
//     run's (TestTreeIsUncharged). A repair wave's kernels see only what the
//     wave re-levels, so resetTraversal clears the tier's rec and they record
//     nothing.
//  1. Level volumes: from the replicated delegate directory every rank sums
//     DelegateOutDeg per BFS level, O(d + depth), no communication.
//  2. Per-level direction: the tree edges between levels L−1 and L are found
//     either by PULL (rows of level L look up for their smallest neighbor)
//     or by PUSH (rows of level L−1 offer themselves to their neighbors one
//     level down), whichever side has the smaller volume. Both give the same
//     minimum because each GPU's dd subgraph is symmetric — the distributor
//     sends u→v and v→u to the same GPU (the lower-out-degree endpoint's
//     owner) — and because dense delegate ids ascend with global ids
//     (partition.Separate), so the smallest delegate id IS the smallest
//     global id: a row's minimum is kept dense and converted once
//     (delegateOffer) before it is folded.
//  3. Fused dd pass: one visit per selected dd row serves its pull (up) and
//     its push (down); rows neither pair needs are never read. Neighbor
//     levels are looked up as one-byte tags (level mod 255): the hop
//     distances across an edge differ by at most one, so the residues of
//     l−1, l and l+1 cannot collide, and d bytes stay cache-resident where
//     4·d do not.
//  4. nd pass: each GPU's ND is the co-located transpose of its DN (Route
//     sends both directions of a delegate–normal edge to the normal's
//     owner), so one scan over NDSources yields both a normal's smallest
//     delegate parent and a delegate's smallest local normal parent. A
//     rank's delegate candidates are uint32 global ids + 1 (0: none), and
//     they meet in one stripe min-fold (reduceDelegates) on the rank whose
//     gather share holds the delegate — the reduction of Buluč & Madduri:
//     each candidate reaches the one rank that writes the vertex, not every
//     rank.
//  5. nn replay: each GPU replays outgoing nn edges once, sending
//     (destLocal, senderLevel+1, senderGlobal) pairs; receivers fold the
//     smallest valid candidate. Only a vertex with an nn neighbor exactly
//     one level down replays its row: a fold accepts an offer at the claimed
//     level and nowhere else, so every other row's offers are rejected to
//     the last. Who has such a neighbor the traversal has already found out,
//     for nothing: nn never runs backward (§IV-B), so a vertex v in the
//     frontier of superstep ℓ+1 pushes every nn neighbor, its level-ℓ
//     neighbor u included; a duplicate of an id is dropped in four places —
//     uniquify within a bin, a codec-active stage within a slot
//     (mergeForRank), a butterfly relay's union against the equal id it
//     already holds (mergePending, which is also how the destination unions
//     its hops' sections), and a bitmap block by construction — and each
//     drops a copy only beside another it keeps, never an id's last; so u's
//     id reaches u's GPU
//     claiming depth ℓ+2 while levels[u] = ℓ, which applyIDs and kernelNN's
//     same-GPU branch — holding levels[u] for the unvisited test anyway —
//     note in one bit per slot (gpuState.hasChild). The deepest level's
//     frontier still runs its kernels, so the bit is exact, not a superset
//     (TestReplayFilterOracle), and the pairs sent are the flagged rows'
//     cross-GPU entries — about half the visited rows' on RMAT, which moves
//     the paper's "low cost" claim toward true. A repair wave preloads its
//     levels instead of traversing to them: the same kernels write bits, but
//     only for what the wave re-levelled, so the replay ignores them and
//     offers from every visited row (Session.childKnown), as RunRepair always
//     does.
//     The pairs travel in one all-pairs pair round (pairRound, exchange.go),
//     posted in the phase that bins them and read in the next, each bin as
//     generated, in bin order: with a codec active in the smaller of a raw
//     and a bit-packed pairs block, with the codec off in a raw block charged
//     12 bytes per pair — one wire format and one decoder whatever the mode,
//     and no sort, since the fold keeps the smallest offer in whatever order
//     the offers arrive.
//
// The resolution is three driven phases (finishQuery): steps 0–4 and the
// replay's posts; the replay's reads and the candidates' stripe min-fold; and
// the gather, in which every rank writes one contiguous range of global ids
// straight into the query's output arrays, reading all p GPUs' rows and, for a
// delegate, its tier's levels and its own stripe of the reduced candidates
// (gatherRank). A query that collects levels only is the gather alone.
//
// Every parent candidate of every tree — a delegate's or a normal vertex's,
// recorded by a kernel or folded by a pass, the replay or a repair's patch —
// is one form from its first write: a uint32 global id + 1, 0 for none, which
// takes an offer through fold (a sweep's first-hit passes write it once
// instead). Only the three gathers (gatherRank, finishRepair's, gatherLanes)
// convert it, to the int64 parents of the result.
//
// Steps 0–5 are one tree's, from the level arrays and the delegate tier a
// single-source traversal leaves behind (Run records step 0; Repair's full
// resolution and RunRepair run steps 1–3 in its place). A K-source sweep
// keeps no level arrays, only its frontier history — per level, which lanes
// first reached which vertex — and resolves its K trees from that at once
// (sweep_tree.go), the tree edges between two levels being word operations on
// lane sets, not per-lane compares, and its dd and nd passes needing neither
// a direction nor a comparison: they walk a level's delegates in ascending id
// through their dd and DN rows, and since dense ids ascend with global ids (2
// above) the FIRST delegate to reach a (neighbor, lane) — delegate or normal —
// is the smallest. Its delegate candidates, K per delegate, meet in the same
// stripe min-fold.
//
// A repair (Repair) has a third shape, because it starts with more than
// levels: the prior epoch's tree π, exact under this same contract, of which a
// small delta leaves all but half a per cent standing. Its finisher
// (repair_tree.go) copies π and resolves again only the re-pull set
//
//	R = C ∪ invalid ∪ (still-valid endpoints of inserted edges) − {source}
//
// where C is every vertex whose level the wave changed and invalid what
// delta.Invalidated voided (re-derived or left unreached). R's members pull
// over their own rows, from nothing, and in the same visit offer themselves to
// their neighbors one level down; nobody else reads a row. That is exact:
//
//   - A vertex v ∉ R has its prior level and its prior rows (it is no insert
//     endpoint; a deleted edge at v that mattered was its tree edge and put v
//     in invalid). So its candidate set — neighbors at level ℓ(v)−1 — changed
//     only by members of C entering or leaving that level, or by a neighbor
//     lost to a deleted non-tree edge, which was not the minimum.
//   - π(v) is still a candidate: the edge survives, and π(v) ∉ C — a parent
//     whose level dropped takes the child along the surviving edge (ℓ′(v) ≤
//     ℓ′(π(v))+1 < ℓ(v), so v ∈ C), and a parent whose level rose or vanished
//     was invalid, and with it its whole subtree, v included.
//   - Hence π′(v) = min(π(v), the members of C now at ℓ(v)−1 adjacent to v),
//     and every such member offers itself to v when it visits its own row —
//     the graph is symmetric, v is in it.
//   - A member's pull sees its whole row, so it needs nobody's offer; offers
//     between members are redundant, not wrong.
//
// π(v) for v ∉ R is read where the result is written, on the rank that owns
// v, and only for a v some offer reached; every other entry of the copy is
// never touched. Both ways of finishing a repair give the same tree; which is
// less work depends on |R| (finishRepair decides, from row counts).
//
// The three resolvers share the contract and what enforces it — the replay
// pair's packing, the fold that keeps the smallest offer (fold), the
// dd and nd row loops (ddPass, ndPass: the repair runs them over R's rows),
// the candidates' form and their one reduction (reduceDelegates), the
// missing-parent panics — and the pair round that carries every replay
// (pairRound, exchange.go), whose pairs carry a lane set in a sweep.
//
// Resolution traffic is reported (ParentPairs) but excluded from simulated
// BFS time, matching the paper's reporting of distance-only timings.

// parentLevelBits packs the sender's claimed child level into the low word of
// a pair value and the parent global id into the high word, so the pairs
// codec's bit-packed block gives each its own column: about 16 bits of
// parent ids and 3 of levels in a replay block on RMAT 16, against one
// 36-bit varint per value with the level in the low 20 bits. A parent's
// global id is below 2^32 wherever parents are collected (effectiveOptions)
// and a level is an int32, so both always fit.
const parentLevelBits = 32

// parentTagBase is the message tag of the resolution's first pair round,
// outside the iteration tag space; round r of a resolution sends at
// parentTagBase+r. A cold run and a sweep have one round (a sweep's replay
// carries all K lanes in it), a repair's patch two.
const parentTagBase = 1 << 30

// parentPairVal packs a replay pair's value: sender uGlobal claiming the
// child level childLevel.
func parentPairVal(uGlobal int64, childLevel int32) uint64 {
	if uGlobal >= 1<<(64-parentLevelBits) {
		panic(fmt.Sprintf("core: vertex id %d exceeds the pairs-codec ceiling", uGlobal))
	}
	return uint64(uGlobal)<<parentLevelBits | uint64(childLevel)
}

// gatherShare is the range of local slots whose global ids — every GPU's,
// ids [lo·p, hi·p) — rank writes in a full gather.
func (pe *planEnv) gatherShare(rank int) (lo, hi int64) {
	p64, prank := int64(pe.p), int64(pe.shape.Ranks())
	rows := (pe.sg.N + p64 - 1) / p64
	return rows * int64(rank) / prank, rows * int64(rank+1) / prank
}

// delegateShare is rank's stripe of the delegate directory: the delegates
// whose global ids lie in its gather share. Dense ids ascend with global ids
// (partition.Separate), so it is contiguous.
func (pe *planEnv) delegateShare(rank int) (dlo, dhi int64) {
	lo, hi := pe.gatherShare(rank)
	p64 := int64(pe.p)
	at := func(v int64) int64 {
		i, _ := slices.BinarySearch(pe.sg.Sep.DelegateGlobal, v)
		return int64(i)
	}
	return at(lo * p64), at(hi * p64)
}

// reduceDelegates is where every tree's delegate candidates meet, the stripe
// min-fold: cands(r) is rank r's buffer, k candidates per delegate, global id
// + 1 (0: none), and rank folds into its own the smallest any rank holds for
// the delegates of its share (delegateShare). It runs in a phase after every
// buffer is final; a rank writes only its own stripe, which no other reads.
func (pe *planEnv) reduceDelegates(rank, k int, cands func(r int) []uint32) {
	dlo, dhi := pe.delegateShare(rank)
	lo, hi := int(dlo)*k, int(dhi)*k
	mine := cands(rank)[lo:hi]
	for r := range pe.shape.Ranks() {
		if r == rank {
			continue
		}
		for i, c := range cands(r)[lo:hi] {
			// c−1 is the offer's id, and "none" wraps to the all-ones id,
			// which loses every comparison.
			mine[i] = fold(mine[i], c-1)
		}
	}
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

// noLevel is a level no vertex holds (unvisited is -1).
const noLevel int32 = -2

// fold is how every parent candidate takes an offer: c is the smallest
// parent offered so far, global id + 1 (0: none), and c−1 wraps "none" to the
// largest id, which loses every comparison. The all-ones id is never an
// offer: a missed compare ORs it in (ddPass), a prior parent of -1 becomes it.
func fold(c, id uint32) uint32 { return min(c-1, id) + 1 }

// parentOf is candidate c as a result's parent: its global id, -1 for none.
func parentOf(c uint32) int64 { return int64(c) - 1 }

// delegateOffer is dense delegate id di's global id as an offer to fold: a
// pass keeps a row's minimum dense (dense ids ascend with global ids) and
// converts it once, the all-ones id of a row without a hit to no offer.
func delegateOffer(global []int64, di uint32) uint32 {
	if di == math.MaxUint32 {
		return di
	}
	return uint32(global[di])
}

// treeOut is a query's gathered result: global-id-indexed arrays shared by
// all ranks, each of which writes a disjoint set of elements — a contiguous
// range of them in the full gather. A nil array is not collected.
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
	cand []uint32 // delegate id → smallest parent global id + 1, 0: none
	// memberReads is the nd and nn row entries of the rank's normal members
	// of a repair's re-pull set, which the patch-or-full decision sums;
	// patchReads counts the row entries of all four subgraphs the last repair
	// patch read (BenchmarkRepairResolve, against the graph's edges).
	memberReads, patchReads int64

	// rounds are the resolution's pair rounds: a full resolution has one (the
	// nn replay), a repair's patch two (offers out, answers back), each with
	// bins and message buffers of its own, because a rank fills round 1's
	// while its peers may still be decoding what it posted in round 0.
	rounds []pairRound
}

// finishQuery finishes a single-source query on every rank: the canonical
// parent resolution, when parents are collected, and the gather of each
// rank's share of the result — phaseResolve | phaseReplay | phaseGather, two
// rendezvous. A levels-only query is the gather alone: the loop's last
// rendezvous already made every level final.
func (e *Session) finishQuery(source int64) error {
	d := &e.drv
	e.source = source
	d.fan = e.sg.N >= fanWork
	if e.out.parents == nil {
		return d.run(e, phaseGather)
	}
	return d.runPhases(e, phaseResolve, phaseReplay, phaseGather)
}

// step is rank's share of one of the session's own phases: a cold run's reset
// and the tree finishers' (finishQuery, finishRepairs).
func (e *Session) step(ph phase, rank int) {
	ps := &e.scratch[rank].parents
	switch ph {
	case phaseReset:
		e.resetRank(rank)
	case phaseResolve:
		e.resolveDelegateTier(rank, e.source, ps)
		e.replayNN(rank, ps)
	case phaseReplay:
		e.readRound(rank, ps, 0, accept)
		e.reduceDelegates(rank, 1, e.candidatesOf)
	case phaseGather:
		e.gatherRank(rank, ps)
	// A repair patch's (repair_tree.go).
	case phasePatchReads:
		e.countMembers(rank, ps)
	case phasePatch:
		e.patchRows(rank, ps)
		e.postRound(rank, ps, 0)
	case phaseOffers:
		e.readOffers(rank, ps)
	case phaseAnswers:
		e.postRound(rank, ps, 1)
	case phaseAnswered:
		e.readRound(rank, ps, 1, accept)
		e.reduceDelegates(rank, 1, e.candidatesOf)
		e.patchGather(rank, ps)
	}
}

// candidatesOf is rank r's delegate candidates.
func (e *Session) candidatesOf(r int) []uint32 { return e.scratch[r].parents.cand }

// treeDirections computes the level tags and volumes of one delegate-level
// replica and from the volumes each level pair's direction (levelDirections).
// Every rank derives the identical answer from the replicated directory.
func (ps *parentScratch) treeDirections(dLevel []int32, outDeg []int64) []bool {
	if cap(ps.tag) < len(dLevel) {
		ps.tag = make([]uint8, len(dLevel))
	}
	tag := ps.tag[:len(dLevel)]
	for di, l := range dLevel {
		if l < 0 {
			tag[di] = noTag
		} else {
			tag[di] = levelTag(l)
		}
	}
	ps.vol = levelVolumes(ps.vol, dLevel, outDeg)
	ps.push = levelDirections(ps.push, ps.vol)
	return ps.push
}

// levelVolumes returns, in vol's storage, Σ outDeg of the delegates on each
// level of dLevel.
func levelVolumes(vol []int64, dLevel []int32, outDeg []int64) []int64 {
	vol = vol[:0]
	for di, l := range dLevel {
		if l < 0 {
			continue
		}
		for int(l) >= len(vol) {
			vol = append(vol, 0)
		}
		vol[l] += outDeg[di]
	}
	return vol
}

// levelDirections returns, in push's storage, each level pair's direction
// from the level volumes: push[L] reports that the tree edges into level L
// are found from the rows of level L−1. Ties go to push (equal edge volume,
// and the earlier level of a BFS is the one with fewer rows). push has one
// entry past the deepest level, false, so the deepest rows never push;
// push[0] is true so the root never pulls.
func levelDirections(push []bool, vol []int64) []bool {
	push = append(push[:0], true)
	for l := 1; l < len(vol); l++ {
		push = append(push, vol[l-1] <= vol[l])
	}
	return append(push, false)
}

// levelTag is a level's one-byte stand-in; noTag marks an unvisited delegate.
const noTag = 255

func levelTag(l int32) uint8 {
	if uint32(l) < noTag {
		return uint8(l) // nearly every level; spares the division
	}
	return uint8(l % noTag)
}

// missMask is all ones unless a == b, so id|missMask(…) drops out of a min.
func missMask(a, b uint8) uint32 { return uint32(int32(-uint32(a^b)) >> 31) }

// ddPass folds one GPU's non-empty dd rows into cand (delegate id → smallest
// parent one level up, global id + 1; global is the delegate directory) and
// returns the row entries read. A row at level l pulls for itself when pair
// (l−1, l) is a pull and offers itself to its level-l+1 neighbors when pair
// (l, l+1) is a push. The pull's compare is arithmetic on the one-byte level
// tags: a neighbor's level is a coin flip to the branch predictor.
func ddPass(pg *partition.GPUGraph, dLevel []int32, tag []uint8, push []bool, global []int64, cand []uint32) int64 {
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
				best := uint32(math.MaxUint32)
				up := levelTag(l - 1)
				for _, dv := range row {
					best = min(best, dv|missMask(tag[dv], up))
				}
				cand[di] = fold(cand[di], delegateOffer(global, best))
			}
			if pushDown {
				self := uint32(global[di])
				down := levelTag(l + 1)
				for _, dv := range row {
					cand[dv] = fold(cand[dv], self|missMask(tag[dv], down))
				}
			}
		}
	}
	return scanned
}

// ddPatch is the repair patch's dd pass: it reads just the rows of the
// delegates set in only (a d-bit mask's words) and resolves each both ways —
// its smallest neighbor one level up, its offer to those one level down —
// because its rows' neighbors will not be visited themselves. A patch reads
// few rows, so it compares the levels themselves and needs no tags.
func ddPatch(pg *partition.GPUGraph, dLevel []int32, only []uint64, global []int64, cand []uint32) int64 {
	var scanned int64
	offs, cols := pg.DD.RowOffsets, pg.DD.Cols
	for wi, word := range pg.DDSourceMask.Words() {
		for word &= only[wi]; word != 0; word &= word - 1 {
			di := wi*64 + bits.TrailingZeros64(word)
			l := dLevel[di]
			if l < 0 {
				continue
			}
			row := cols[offs[di]:offs[di+1]]
			scanned += int64(len(row))
			best, self := uint32(math.MaxUint32), uint32(global[di])
			for _, dv := range row {
				switch dLevel[dv] {
				case l - 1:
					best = min(best, dv)
				case l + 1:
					cand[dv] = fold(cand[dv], self)
				}
			}
			cand[di] = fold(cand[di], delegateOffer(global, best))
		}
	}
	return scanned
}

// resolveDelegateTier fills ps.cand with this rank's smallest parent
// candidate per delegate: the dd candidates the cold traversal's kernels
// recorded or, where they recorded none (a repair's full resolution), the
// direction-optimised dd pass's; then the nd pass, which also seeds the local
// normal vertices' delegate parents.
func (e *Session) resolveDelegateTier(rank int, source int64, ps *parentScratch) {
	sep, dt := e.sg.Sep, &e.scratch[rank].dt
	gpus := e.rankGPUs(rank)
	if dt.rec == nil {
		push := ps.treeDirections(dt.level, e.sg.DelegateOutDeg)
		cand := ps.candidates(e.d)
		for _, gs := range gpus {
			ddPass(gs.pg, dt.level, ps.tag, push, sep.DelegateGlobal, cand)
		}
	}
	if di := sep.DelegateID[source]; di >= 0 {
		// Only the source sits at level 0: it is its own parent.
		ps.cand[di] = uint32(source) + 1
	}
	for _, gs := range gpus {
		e.ndPass(gs, gs.pg.NDSources, dt.level, ps.cand)
	}
}

// candidates returns the rank's delegate candidates emptied, allocated on
// first use.
func (ps *parentScratch) candidates(d int64) []uint32 {
	if ps.cand == nil {
		ps.cand = make([]uint32, d)
	}
	clear(ps.cand)
	return ps.cand
}

// ndPass resolves the nd edges of the listed local rows in both directions —
// a row's smallest delegate one level up is its first parent candidate, and
// the row offers itself to its delegates one level down — and returns the
// entries read.
func (e *Session) ndPass(gs *gpuState, rows []uint32, dLevel []int32, cand []uint32) (scanned int64) {
	sep := e.sg.Sep
	pg, levels, parents := gs.pg, gs.levels, gs.parents
	for _, u := range rows {
		lu := levels[u]
		if lu < 0 {
			continue
		}
		up := lu - 1
		if lu == 0 {
			up = noLevel // -1 is "unvisited", not a level
		}
		uGlobal := uint32(e.cfg.GlobalID(u, pg.Rank, pg.Slot))
		best := uint32(math.MaxUint32)
		row := pg.ND.Neighbors(int64(u))
		scanned += int64(len(row))
		for _, dv := range row {
			ld := dLevel[dv]
			if ld == up {
				best = min(best, dv)
			}
			if ld == lu+1 {
				cand[dv] = fold(cand[dv], uGlobal)
			}
		}
		parents[u] = fold(parents[u], delegateOffer(sep.DelegateGlobal, best))
	}
	return scanned
}

// foldParent offers parent, a global id, to local vertex id as a neighbor
// claiming it as a child at childLevel, and reports whether it is the smallest
// offer so far.
func foldParent(levels []int32, parents []uint32, id uint32, childLevel int32, parent uint32) bool {
	if levels[id] != childLevel {
		return false
	}
	c := fold(parents[id], parent)
	if c == parents[id] {
		return false
	}
	parents[id] = c
	return true
}

// accept folds a block of replay pairs into one GPU's parent array.
func accept(gs *gpuState, prs []frontier.Pair) {
	levels, parents := gs.levels, gs.parents
	for _, pr := range prs {
		foldParent(levels, parents, pr.ID, int32(pr.Val&(1<<parentLevelBits-1)), uint32(pr.Val>>parentLevelBits))
	}
}

// replayNN folds the nn candidates into the local parent arrays: same-GPU
// edges directly, everything else through the remote replay round, whose bins
// it fills and posts. Only a vertex with an nn neighbor one level down replays
// its row — foldParent accepts an offer nowhere else — which a cold traversal
// has already worked out (gpuState.hasChild); a repair wave's bits cover only
// what it re-levelled, so it replays every visited row. Once every rank has
// read its round (phaseReplay), this rank's parent rows are final.
func (e *Session) replayNN(rank int, ps *parentScratch) {
	p64 := int64(e.p)
	bins := ps.pairBins(e, 0)
	for _, gs := range e.rankGPUs(rank) {
		pg, levels, parents := gs.pg, gs.levels, gs.parents

		// Replay outgoing nn edges once, claiming child level = my level + 1;
		// same-GPU destinations fold directly, everything else (same-rank
		// peers included) goes through the pair bins.
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			lvl := levels[slot]
			if lvl == 0 {
				// The root: a normal source is its own parent.
				parents[slot] = uint32(e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)) + 1
			}
			if lvl < 0 || pg.NN.Degree(slot) == 0 {
				continue
			}
			if e.childKnown && !gs.hasChild.Get(slot) {
				continue
			}
			uGlobal := e.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			childLevel := lvl + 1
			val := parentPairVal(uGlobal, childLevel)
			for _, v := range pg.NN.Neighbors(slot) {
				owner := e.cfg.OwnerGPU(v)
				if owner == pg.GPU {
					foldParent(levels, parents, uint32(v/p64), childLevel, uint32(uGlobal))
					continue
				}
				bins.Add(owner, uint32(v/p64), val)
			}
		}
	}
	e.postRound(rank, ps, 0)
}

// pairBins returns the emptied pair bins of resolution round r, allocated with
// the round on first use.
func (ps *parentScratch) pairBins(e *Session, r int) *frontier.PairBins {
	for len(ps.rounds) <= r {
		ps.rounds = append(ps.rounds, newPairRound(e.shape, frontier.NewPairBins(e.p), 0))
	}
	bins := ps.rounds[r].bins
	bins.Reset()
	return bins
}

// postRound posts resolution round r over the bins the caller filled and
// counts its pairs and bytes. The volume is reported in WireStats but, like
// the rest of the resolution, excluded from simulated BFS time.
func (e *Session) postRound(rank int, ps *parentScratch, r int) {
	round := &ps.rounds[r]
	round.post(e.world.Rank(rank), parentTagBase+r, e.opts.Compression)
	atomic.AddInt64(&e.parentExchangePairs, round.bins.Count())
	atomic.AddInt64(&e.parentPairRawBytes, round.out.sentRaw)
	atomic.AddInt64(&e.parentPairWireBytes, round.out.sent)
}

// readRound reads resolution round r in the phase after its posts; apply
// folds every block that lands on one of this rank's GPUs.
func (e *Session) readRound(rank int, ps *parentScratch, r int, apply func(gs *gpuState, prs []frontier.Pair)) {
	gpus := e.rankGPUs(rank)
	ps.rounds[r].read(e.world.Rank(rank), parentTagBase+r, e.opts.Compression, func(s int, prs []frontier.Pair, _ []uint64) { apply(gpus[s], prs) })
}

// gatherSlots is the number of slots the gather takes from one GPU before it
// moves to the next: long enough to read each owner's arrays as a stream,
// short enough that the p interleaved runs it fills stay in cache. Nothing
// between 8 and 512 measures differently on RMAT 16 and 18 (8 and 64 GPUs).
const gatherSlots = 64

// gatherRank writes this rank's share of the query's global arrays — the
// contiguous range of global ids that is its share of the local slots, every
// GPU's — in the phase after the replay's reads and the stripe min-fold, or
// after the loop's last rendezvous when only levels are collected, so every
// rank's rows it reads are final. Consecutive ids belong to consecutive
// residue classes, so the p owners' arrays are read as p sequential streams,
// a few slots of each at a time, and each result entry is written once, into
// a window that stays in cache; only the line at either end of a range is
// shared with another rank. A delegate's home slot holds -1; its entry comes
// from the rank's delegate tier and its stripe of the reduced candidates,
// which holds every delegate of its share. A candidate, global id + 1,
// becomes the result's parent here. Unvisited vertices write their -1, so no
// prefill is needed.
func (e *Session) gatherRank(rank int, ps *parentScratch) {
	out, sep := e.out, e.sg.Sep
	dLevel := e.scratch[rank].dt.level
	p64 := int64(e.p)
	lo, hi := e.gatherShare(rank)
	for s0 := lo; s0 < hi; s0 += gatherSlots {
		for res := int64(0); res < p64; res++ {
			gs := e.gpus[e.cfg.OwnerGPU(res)]
			s1 := min(s0+gatherSlots, hi, gs.pg.NumLocal)
			if s0 >= s1 {
				continue
			}
			v := s0*p64 + res
			for slot, lvl := range gs.levels[s0:s1] {
				par := int64(-1)
				if lvl >= 0 {
					if out.parents != nil {
						if par = parentOf(gs.parents[s0+int64(slot)]); par == -1 && lvl >= 1 {
							panicMissingParent(v, gs.pg.GPU)
						}
					}
				} else if di := sep.DelegateID[v]; di >= 0 {
					if lvl = dLevel[di]; lvl >= 0 && out.parents != nil {
						if par = parentOf(ps.cand[di]); par == -1 {
							panicNoCandidate(int64(di))
						}
					}
				}
				if out.levels != nil {
					out.levels[v] = lvl
				}
				if out.parents != nil {
					out.parents[v] = par
				}
				v += p64
			}
		}
	}
}
