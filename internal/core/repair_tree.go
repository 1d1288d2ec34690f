package core

import (
	"slices"

	"gcbfs/internal/frontier"
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
//     offers in the stripe min-fold every tree's delegate candidates meet in
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
// small: the driver sums the row entries the patch would read and, once that
// exceeds what the full resolution reads (fullReads, priced once per repair by
// finishRepairs), runs that instead — over the same levels, to the same tree,
// as whole-graph repairs always ended.
//
// The patch is five driven phases, four rendezvous: the members' row count,
// which the driver sums; their rows and round 0's posts; round 0's reads and
// answers; round 1's posts, apart because a rank has one post in flight; and
// round 1's reads, the stripe min-fold and the gather, which reads nothing
// another rank writes in that phase.

// fullReads estimates the row entries a full resolution of the delegate
// levels in dLevel reads, from replicated data alone: the delegate volume of
// the levels its direction-optimised dd pass selects, every nd row and every
// nn row.
func (e *Session) fullReads(dLevel []int32) int64 {
	pr := &e.probe
	pr.vol = levelVolumes(pr.vol, dLevel, e.sg.DelegateOutDeg)
	pr.push = levelDirections(pr.push, pr.vol)
	reads := e.sg.CountND + e.sg.CountNN
	for l, vol := range pr.vol {
		if !pr.push[l] || pr.push[l+1] {
			reads += vol
		}
	}
	return reads
}

// finishRepairs resolves and gathers a repair's result, when the query
// collects one: by patching the prior tree when the repair started from it and
// the driver's sum of the row entries the patch would read stays within what
// the full resolution (finishQuery) reads, priced once, here, from the
// delegate levels every rank holds alike.
func (e *Session) finishRepairs(in *repairIn) error {
	if !e.collects() {
		return nil
	}
	if in.parents == nil || e.out.parents == nil {
		return e.finishQuery(in.source)
	}
	d, lead := &e.drv, e.scratch[0]
	e.probe.in, e.probe.full = in, e.fullReads(lead.dt.level)
	var listed int64
	for _, gs := range e.gpus {
		listed += int64(len(gs.rep))
	}
	d.fan = listed >= fanWork
	if err := d.run(e, phasePatchReads); err != nil {
		return err
	}
	d.world.Meet()
	// The sum-fold: the normal members' rows, rank by rank, and the delegate
	// members', which every rank marked alike from replicated data.
	var reads int64
	for _, sc := range e.scratch {
		reads += sc.parents.memberReads
	}
	lead.members.ForEach(func(di int64) {
		if lead.dt.level[di] >= 0 {
			reads += e.sg.DelegateOutDeg[di]
		}
	})
	if in.full || reads > e.probe.full {
		return e.finishQuery(in.source)
	}
	d.fan = reads >= fanWork
	return d.runPhases(e, phasePatch, phaseOffers, phaseAnswers, phaseAnswered)
}

// countMembers lists the rank's normal members of the re-pull set once — they
// were listed as the repair went (preload, probe, wave), per GPU, with repeats
// — and counts the nd and nn row entries they would read.
func (e *Session) countMembers(rank int, ps *parentScratch) {
	sc := e.scratch[rank]
	ps.memberReads = 0
	for _, gs := range e.rankGPUs(rank) {
		frontier.SortIDs(gs.rep, &sc.sortBuf)
		gs.rep = slices.Compact(gs.rep)
		gs.repMembers = len(gs.rep)
		for _, slot := range gs.rep {
			if gs.levels[slot] >= 0 {
				ps.memberReads += gs.pg.ND.Degree(int64(slot)) + gs.pg.NN.Degree(int64(slot))
			}
		}
	}
}

// patchRows resolves the members' local rows. Every candidate starts empty —
// the prior parents are folded in where the result is written — so what the
// members' rows offer is all the arrays hold. Delegate members' dd and dn
// slices resolve both ways, normal members' nd rows resolve here and their nn
// rows go out as offers in round 0's bins. Past each GPU's members, rep grows
// by the non-members an offer reached.
func (e *Session) patchRows(rank int, ps *parentScratch) {
	sc := e.scratch[rank]
	sep := e.sg.Sep
	gpus := e.rankGPUs(rank)
	dLevel, dMembers := sc.dt.level, sc.members
	p64 := int64(e.p)
	cand := ps.candidates(e.d)
	ps.patchReads = 0
	for _, gs := range gpus {
		ps.patchReads += ddPatch(gs.pg, dLevel, dMembers.Words(), sep.DelegateGlobal, cand)
	}
	offers := ps.pairBins(e, 0)
	ps.pairBins(e, 1) // the answers, which round 0's reads fill
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
}

// readOffers folds round 0's offers, and answers the ones that came from one
// level below their target into round 1's bins.
func (e *Session) readOffers(rank int, ps *parentScratch) {
	p64 := int64(e.p)
	answers := ps.rounds[1].bins
	e.readRound(rank, ps, 0, func(gs *gpuState, prs []frontier.Pair) {
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
}

// patchGather is the copy-and-patch gather: this rank's members, the
// non-members an offer reached — who keep their prior parent unless the offer
// beat it — and the same two kinds among the delegates of its stripe. No two
// ranks write the same entry (a delegate has no local row to be listed by, and
// its stripe is one rank's), and a rank reads only its own GPUs' rows and its
// own stripe, so it runs in the phase that makes them final.
func (e *Session) patchGather(rank int, ps *parentScratch) {
	in, out := e.probe.in, e.out
	sc := e.scratch[rank]
	sep := e.sg.Sep
	dLevel, dMembers, cand := sc.dt.level, sc.members, ps.cand
	for _, gs := range e.rankGPUs(rank) {
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
