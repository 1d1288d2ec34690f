package core

import (
	"slices"

	"gcbfs/internal/frontier"
	"gcbfs/internal/mpi"
)

// The repair wave's finisher: the new epoch's canonical tree as the prior
// epoch's, patched. parents.go's header says why only the re-pull set R (what
// the delta invalidated, the wave re-levelled or an inserted edge touches)
// needs resolving again, and what this resolver shares with the other two.
// R's members, and nobody else, read their own rows:
//
//   - nd, dd and dn rows resolve locally, both ways at once: an R-normal's ND
//     row on its owner, an R-delegate's DD and DN slices on every GPU that
//     holds one. What a rank's rows offer a delegate meets the other ranks'
//     offers in the reduce-scatter every tree's delegate candidates meet in
//     (reduceDelegates), on the rank whose gather share holds the delegate,
//     where a non-member's prior parent is the one to beat.
//   - nn rows take two pair rounds, because a vertex sees its remote
//     neighbors' ids but not their levels. Round 0 carries R's offers, the
//     replay's own pair (neighbor, member claiming level+1): the owner folds
//     it like any replay pair and — the graph is symmetric, so the pair names
//     an edge of the neighbor's row too — answers in round 1 with the mirrored
//     pair when the neighbor sits one level above the member.
//
// Each rank then rewrites only the result entries it touched; the arrays began
// as a copy of the prior's (Plan.repair). That is less work only while R is
// small: the ranks sum the row entries the patch would read and, once that
// exceeds what the full resolution reads (fullReads), run that instead — over
// the same levels, to the same tree, as whole-graph repairs always ended.

// fullReads estimates the row entries a full resolution of the delegate
// levels in dLevel reads, from replicated data alone: the delegate volume of
// the levels its direction-optimised dd pass selects, every nd row and every
// nn row. It leaves ps.tag describing dLevel.
func (e *Session) fullReads(ps *parentScratch, dLevel []int32) int64 {
	push := ps.treeDirections(dLevel, e.sg.DelegateOutDeg)
	reads := e.sg.CountND + e.sg.CountNN
	for l, vol := range ps.vol {
		if !push[l] || push[l+1] {
			reads += vol
		}
	}
	return reads
}

// finishRepair resolves and gathers one rank's share of a repair's result: by
// patching, when the repair started from the prior tree (Plan.repair copied it
// into the result) and the patch reads less than the full resolution would.
func (e *Session) finishRepair(rank int, comm *mpi.Comm, in *repairIn) {
	if in.parents == nil || e.out.parents == nil {
		e.finishQuery(rank, comm, in.source)
		return
	}
	sc := e.scratch[rank]
	ps := &sc.parents
	sep := e.sg.Sep
	gpus := e.rankGPUs(rank)
	dLevel := sc.dt.level
	p64 := int64(e.p)

	// The re-pull set was listed as the repair went (preload, probe, wave):
	// normal members per GPU, delegate members from replicated data, so every
	// rank marked the same ones. Sum the row entries they would read.
	dMembers := sc.members
	reads := append(sc.sums[:0], 0)
	sc.sums = reads
	for _, gs := range gpus {
		frontier.SortIDs(gs.rep, &sc.sortBuf)
		gs.rep = slices.Compact(gs.rep)
		gs.repMembers = len(gs.rep)
		for _, slot := range gs.rep {
			if gs.levels[slot] >= 0 {
				reads[0] += gs.pg.ND.Degree(int64(slot)) + gs.pg.NN.Degree(int64(slot))
			}
		}
	}
	comm.AllreduceSum(reads)
	dMembers.ForEach(func(di int64) {
		if dLevel[di] >= 0 {
			reads[0] += e.sg.DelegateOutDeg[di]
		}
	})
	if in.full || reads[0] > e.fullReads(ps, dLevel) {
		e.finishQuery(rank, comm, in.source)
		return
	}

	// Local rows. Every candidate starts empty — the prior parents are folded
	// in where the result is written — so what the members' rows offer is all
	// the arrays hold. Delegate members' dd and dn slices resolve both ways,
	// normal members' nd rows resolve here and their nn rows go out as offers.
	// Past each GPU's members, rep grows by the non-members an offer reached.
	cand := ps.candidates(e.d)
	ps.patchReads = 0
	for _, gs := range gpus {
		ps.patchReads += ddPass(gs.pg, dLevel, ps.tag, nil, dMembers.Words(), sep.DelegateGlobal, cand)
	}
	offers := ps.pairBins(e, 0)
	for _, gs := range gpus {
		pg := gs.pg
		members := gs.rep[:gs.repMembers]
		ps.patchReads += e.ndPass(gs, members, dLevel, cand)
		for _, slot := range members {
			lvl := gs.levels[slot]
			if lvl < 0 {
				continue
			}
			val := parentPairVal(e.cfg.GlobalID(slot, pg.Rank, pg.Slot), lvl+1)
			row := pg.NN.Neighbors(int64(slot))
			ps.patchReads += int64(len(row))
			for _, v := range row {
				offers.Add(e.cfg.OwnerGPU(v), uint32(v/p64), val)
			}
		}
	}
	dMembers.ForEach(func(di int64) {
		l := dLevel[di]
		if l < 0 {
			return
		}
		dGlobal := uint32(sep.DelegateGlobal[di])
		for _, gs := range gpus {
			pg := gs.pg
			row := pg.DN.Neighbors(di)
			ps.patchReads += int64(len(row))
			for _, lv := range row {
				switch gs.levels[lv] {
				case l - 1:
					cand[di] = fold(cand[di], uint32(e.cfg.GlobalID(lv, pg.Rank, pg.Slot)))
				case l + 1:
					if foldParent(gs.levels, gs.parents, lv, l+1, dGlobal) {
						gs.rep = append(gs.rep, lv)
					}
				}
			}
		}
	})

	// Round 0: fold each offer, and answer the ones that came from one level
	// below their target. Round 1: fold the answers.
	answers := ps.pairBins(e, 1)
	e.resolveRound(comm, ps, 0, func(gs *gpuState, prs []frontier.Pair) {
		pg := gs.pg
		for _, pr := range prs {
			child := int32(pr.Val & (1<<parentLevelBits - 1))
			v := int64(pr.Val >> parentLevelBits)
			if foldParent(gs.levels, gs.parents, pr.ID, child, uint32(v)) {
				gs.rep = append(gs.rep, pr.ID)
			} else if l := gs.levels[pr.ID]; l >= 0 && l == child-2 {
				answers.Add(e.cfg.OwnerGPU(v), uint32(v/p64), parentPairVal(e.cfg.GlobalID(pr.ID, pg.Rank, pg.Slot), l+1))
			}
		}
	})
	e.resolveRound(comm, ps, 1, accept)
	e.reduceDelegates(comm, rank, cand, 1)

	// Copy-and-patch gather: this rank's members, the non-members an offer
	// reached — who keep their prior parent unless the offer beat it — and the
	// same two kinds among the delegates of its stripe. No two ranks write the
	// same entry (a delegate has no local row to be listed by, and its stripe
	// is one rank's), so no barrier orders them.
	out := e.out
	for _, gs := range gpus {
		v0 := int(e.cfg.Residue(gs.pg.Rank, gs.pg.Slot))
		members := gs.rep[:gs.repMembers]
		for i, slot := range gs.rep {
			v := v0 + int(slot)*e.p
			c := gs.parents[slot]
			if c == 0 && gs.levels[slot] >= 1 {
				panicMissingParent(int64(v), gs.pg.GPU)
			}
			if i >= len(members) {
				if _, member := slices.BinarySearch(members, slot); member {
					continue
				}
				c = fold(c, uint32(in.parents[v]))
			}
			if out.levels != nil {
				out.levels[v] = gs.levels[slot]
			}
			out.parents[v] = parentOf(c)
		}
	}
	dlo, dhi := e.delegateShare(rank)
	for di := dlo; di < dhi; di++ {
		c, member := cand[di], dMembers.Get(di)
		if c == 0 && !member {
			continue
		}
		v := sep.DelegateGlobal[di]
		if !member {
			c = fold(c, uint32(in.parents[v]))
		}
		lvl := dLevel[di]
		if c == 0 && lvl >= 0 {
			panicNoCandidate(di)
		}
		if out.levels != nil {
			out.levels[v] = lvl
		}
		out.parents[v] = parentOf(c)
	}
}
