package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"gcbfs/internal/faults"
	"gcbfs/internal/frontier"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/wire"
)

// This file is the BSP superstep loop (Figs. 3 and 4) of every BFS-family
// traversal: a cold BFS, a delta repair and a K-source sweep all run
// runEnv.runRank, one goroutine per rank. Its superstep is, in order:
// exchange-policy decision → local kernels on the rank's GPUs (scheduled seeds
// first) → the all-pairs posts → the pre-exchange rendezvous → delegate commit
// → frontier exchange and apply → timing assembly → the post-exchange
// rendezvous — the communication structure of §V. Everything a traversal may
// vary sits behind the lanes interface below; fault injection sites, the
// modelled clock's assembly, the statistics and the terminate/cancel protocol
// are this one loop's and nobody else's. A cold BFS and a repair share more
// than the loop: one lanes implementation (sourceLanes), one kernel set and
// one visit rule (kernels.go). A repair differs only in what it starts from
// (its seed schedule and preloaded levels), in running forward only, and in
// its finisher. A sweep has its own lanes.
//
// A superstep is exactly two rendezvous (mpi.AllreduceFused; a test counts
// them), because on the host a rendezvous — parking and waking every rank
// goroutine — costs more than anything a near-empty superstep computes:
//
//   - pre-exchange: the delegate proposal's OR, contributed only by ranks
//     whose GPUs proposed a delegate — "did anyone?" is the reduce's own
//     result, no separate vote — and, on an all-pairs iteration, the posts:
//     every rank posts its messages before it arrives (mpi.Comm.Post), and
//     reads its sources' once the rendezvous returns, so the exchange itself
//     parks no rank (exchange.go). An empty post tells a receiver its
//     source had nothing for it.
//   - post-exchange: the timing vector's element-wise maxima (non-negative
//     doubles as bit patterns, max section) and the sums — work counters,
//     the terminate vote and the context observation.
//
// What follows from the reduced values alike on every rank is derived once:
// the last rank to reach the post-exchange rendezvous runs its closer
// (closeSuperstep, mpi.Comm.AllreduceFusedClose) before any rank is
// released. It prices the superstep through the executed strategy's
// remoteTime, appends the iteration record, feeds the query's one
// policyFeedback, and decides the next superstep's strategy, or that the loop
// stops or was cancelled, into loopState, which every rank reads past the
// rendezvous. GPU 0's kernel directions, which rank 0 alone holds, it reads
// off rank 0's scratch, parked in the same rendezvous. A repair's probe
// charge is its max-reduce's closer the same way. No rank is special.
//
// The modelled clock sees none of this: every charge, wire byte and message
// count is computed as if each collective and each empty message were its
// own, which is what the paper's machine would do.
//
// The dense analytics (internal/concomp, internal/pagerank) are not lanes:
// they have no frontier, their delegate reduction is a min or a float sum the
// OR section cannot carry, and they have no exchange policy; their one loop
// is internal/dense.

// lanes is one rank's side of a traversal: its GPUs' state and what a
// superstep does to it. An implementation may vary what a delegate proposal
// and a frontier payload are (a d-bit mask and ids for one source; a d×K
// matrix and (id, query-set) records for a sweep), which kernels run, the
// visit rule for arrivals, and how the finished traversal becomes a result.
// It may not vary the order of the steps, how they are charged, or when the
// traversal ends. The value lives in the rank's scratch, so a query allocates
// none.
type lanes interface {
	// kernels runs superstep iter's local computation on the rank's GPUs,
	// seeds scheduled at level iter injected first.
	kernels(iter int32)
	// proposal returns the words this rank offers the delegate reduction and
	// whether any bit of them is set; the reduce overwrites them with the
	// global OR when some rank contributed.
	proposal() (words []uint64, proposed bool)
	// commit folds the reduced proposal into the replicated delegate state
	// at level iter+1, or — nothing reduced — retires the delegate frontier.
	commit(reduced bool, iter int32) delegateCommit
	// exchanger returns the rank's instance of the strategy the policy chose.
	exchanger(strategy Exchange) exchanger
	// post runs the superstep's local pre-exchange work on the bins and then
	// ex.post, ahead of the pre-exchange rendezvous.
	post(comm *mpi.Comm, ex exchanger, iter int32)
	// exchange completes the superstep's frontier exchange through ex after
	// that rendezvous and applies everything that arrives — over the wire or
	// from a sibling GPU — at level iter+1.
	exchange(comm *mpi.Comm, ex exchanger, iter int32) *exchangeCounts
	// tally reads the finished superstep's work off the GPUs.
	tally() superstepWork
	// rotate makes the output frontier the next superstep's input.
	rotate()
	// finish resolves and gathers what the traversal collects.
	finish(comm *mpi.Comm)
}

// schedule is the part of a traversal's frontier known before its loop
// starts.
type schedule struct {
	// first is the level of the first superstep; lastSeed the deepest level
	// holding scheduled seeds, through which the loop stays alive even with
	// an empty frontier.
	first, lastSeed int32
	// nSeeds and dSeeds are the global normal and delegate seed counts per
	// level (indexed by level, through lastSeed): the part of a level's input
	// frontier that is known before the loop reaches it, which the exchange
	// policy's volume signal needs.
	nSeeds, dSeeds []int64
}

// delegateCommit is what one superstep's delegate reduction committed: the
// new delegate visits, and the reduced proposal's size in its native form
// (what NVLink moves), as the inter-rank allreduce ships it, and the
// fixed-width bytes pushed through the codec to get there. All zero when
// nothing was reduced.
type delegateCommit struct {
	visits                 int64
	native, wire, codecRaw int64
}

// superstepWork is one rank's tally of a finished superstep: the slowest
// GPU's combined stream seconds, the output frontier's size, the edges
// scanned and GPU0's kernel directions.
type superstepWork struct {
	comp                float64
	nextNormals, edges  int64
	dirDD, dirDN, dirND metrics.Direction
}

// loopScratch is the loop's own per-rank reusable state, embedded in each
// traversal's rank scratch.
type loopScratch struct {
	// mx and sums are the post-exchange reduce's max and sum sections.
	mx, sums []int64
	// The rank's side of the superstep in flight, which is what its closer
	// reads besides the reduced sections: identical on every rank, but for
	// work, whose GPU 0 kernel directions the closer reads off rank 0's
	// (loopState.lead).
	decision
	iter    int32
	ex      exchanger
	reduced bool
	dc      delegateCommit
	work    superstepWork
}

// decision is one superstep's exchange strategy, its predicted remote-normal
// seconds, and the globally known inputs it was decided from: the input
// frontier's sizes and the previous superstep's input normals and originated
// volume — the policy's feedback.
type decision struct {
	strategy                     Exchange
	predicted                    float64
	inputNormals, inputDelegates int64
	prevNormals, prevOriginated  int64
}

// loopState is one query's state past a post-exchange rendezvous: written by
// that rendezvous' closer alone (closeSuperstep) and read by every rank
// before its next — the policy's one feedback, the next superstep's decision
// and whether there is one.
type loopState struct {
	fb   policyFeedback
	next decision
	stop bool
	// lead is rank 0's scratch, parked in every rendezvous its closer runs
	// in; sync is the query's syncOverhead.
	lead *loopScratch
	sync float64
}

// wave is what a single-source traversal may vary about its lanes: the part of
// its frontier known beforehand and — a repair — its input. A cold run and a
// repair run the same kernels under the same visit rule (kernels.go); a
// repair's input decides only what the lanes list for its finisher (the
// vertices the wave re-levels, rotate and commit) and which finisher runs:
// finishRepair, which patches the prior tree where that is less work, or
// finishQuery, which resolves the tree from nothing.
type wave struct {
	schedule
	repair *repairIn
}

// The cold run's seed schedule is its source alone, at level 0 (read-only).
var oneSeed, noSeed = []int64{1}, []int64{0}

// recorder collects a query's statistics (runEnv.rec) in the fields of the
// result they become; only the closers of the query's rendezvous write to it,
// and the main goroutine reads it after all ranks join.
type recorder struct {
	metrics.RunResult
	// cancelled is set by a superstep's closer when the query aborted on its
	// context; every rank reads it past that rendezvous, so all break the BSP
	// loop on the same iteration and no collective is left half-entered.
	cancelled bool
}

// Run executes one BFS from the given global source vertex on a pooled
// Session configured with the base options plus ov, and returns the result
// with simulated timing. The run is functionally exact and deterministic:
// identical inputs produce identical distances, counters and simulated
// times, regardless of how many queries run concurrently.
//
// ctx is honored at iteration boundaries: every rank folds its context
// observation into the per-iteration termination reduction, so a cancelled
// or expired context aborts the query within one BSP iteration and Run
// returns ctx.Err().
func (p *Plan) Run(ctx context.Context, source int64, ov Overrides) (*metrics.RunResult, error) {
	opts, err := p.effectiveOptions(ov)
	if err != nil {
		return nil, err
	}
	if source < 0 || source >= p.sg.N {
		return nil, fmt.Errorf("core: source %d out of range [0,%d)", source, p.sg.N)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := p.acquire(opts)
	defer p.release(s)
	return s.run(ctx, source)
}

// RunBatch executes one BFS per source with at most parallelism queries in
// flight, each on its own pooled Session. Results are source-ordered and
// bit-identical to a serial loop of Run calls — concurrency changes only
// wall-clock time, never results. parallelism ≤ 1 runs serially. The first
// query error (including context cancellation) cancels the remaining
// queries and is returned.
func (p *Plan) RunBatch(ctx context.Context, sources []int64, parallelism int, ov Overrides) ([]*metrics.RunResult, error) {
	if _, err := p.effectiveOptions(ov); err != nil {
		return nil, err
	}
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > len(sources) {
		parallelism = len(sources)
	}
	results := make([]*metrics.RunResult, len(sources))
	if len(sources) == 0 {
		return results, ctx.Err()
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sources) {
					return
				}
				r, err := p.Run(bctx, sources[i], ov)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					cancel()
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		// When the failure is itself a cancellation, prefer the caller's
		// context error so a dead parent context surfaces as ctx.Err(),
		// not as the internal batch cancellation. A genuine query error
		// (bad source, invalid override) always wins — it caused the
		// cancellation, not the other way around.
		if errors.Is(firstErr, context.Canceled) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		return nil, firstErr
	}
	return results, nil
}

// run executes one cold BFS on this (already configured and exclusive)
// session.
func (e *Session) run(ctx context.Context, source int64) (*metrics.RunResult, error) {
	w := e.coldWave(source)
	return e.traverse(ctx, source, newTreeOut(&e.opts, e.sg.N), func(rank int, comm *mpi.Comm) {
		e.runWave(ctx, rank, comm, source, w)
	})
}

// coldWave resets the session and seeds a cold BFS: the source enters the
// frontier at depth 0.
func (e *Session) coldWave(source int64) wave {
	e.reset()
	w := wave{schedule: schedule{nSeeds: oneSeed, dSeeds: noSeed}}
	if e.sg.Sep.IsDelegate(source) {
		w.nSeeds, w.dSeeds = noSeed, oneSeed
		di := int64(e.sg.Sep.DelegateID[source])
		for _, sc := range e.scratch {
			sc.dt.visitedForWrite().Set(di)
			sc.dt.frontDelegate(di)
			sc.dt.level[di] = 0
		}
	} else {
		gs := e.gpus[e.cfg.OwnerGPU(source)]
		local := e.cfg.LocalID(source)
		gs.levels[local] = 0
		gs.inFront = append(gs.inFront, local)
		if gs.isNDSource[local] {
			gs.unvisitedNDSources--
		}
	}
	return w
}

// traverse launches one single-source traversal's rank goroutines on the
// freshly reset session, to fill out, and assembles the result. A fault
// poisons the session; a cancelled query returns the context's error.
func (e *Session) traverse(ctx context.Context, source int64, out treeOut, body func(rank int, comm *mpi.Comm)) (*metrics.RunResult, error) {
	e.out = out
	e.begin(&e.scratch[0].loopScratch)
	if err := RunRanks(e.acquireWorld(), e.opts.Inject, tagSite, body); err != nil {
		e.poisoned = true
		return nil, err
	}
	if err := e.cancelErr(ctx); err != nil {
		return nil, err
	}
	return e.result(source), nil
}

// collects reports whether the ranks have a result to resolve or gather.
func (e *Session) collects() bool { return e.opts.CollectLevels || e.opts.CollectParents }

// result assembles a completed query's RunResult from rank 0's recorder and
// the arrays the ranks gathered, which leave the pooled session with it.
func (e *Session) result(source int64) *metrics.RunResult {
	res := e.rec.RunResult
	res.Source, res.Epoch, res.TEPSEdges = source, e.epoch, e.sg.M/2
	res.Iterations = len(res.PerIteration)
	res.Levels, res.Parents, res.ParentPairs = e.out.levels, e.out.parents, e.parentExchangePairs
	res.Wire.Enabled = e.opts.Compression != wire.ModeOff
	res.Wire.PairRawBytes = e.parentPairRawBytes
	res.Wire.PairWireBytes = e.parentPairWireBytes
	e.out, e.rec = treeOut{}, recorder{}
	return &res
}

// runRank is the per-rank BSP loop, entered with l's frontier and any seeds
// sch schedules already in place. The paper's "CPU thread that controls GPU0"
// performs the global phases (§V-A); here the rank that completes a
// superstep's post-exchange rendezvous does, once, in its closer.
func (e *runEnv) runRank(ctx context.Context, rank int, comm *mpi.Comm, l lanes, ls *loopScratch, sch schedule) {
	lp := &e.loop
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	closer := func(mx, sums []int64) { e.closeSuperstep(ls, l, &sch, mx, sums) }

	// No rendezvous has closed yet: every rank decides the first superstep
	// itself, from the schedule and the query's initial feedback.
	ls.decision = decision{inputNormals: sch.nSeeds[sch.first], inputDelegates: sch.dSeeds[sch.first]}
	ls.strategy, ls.predicted = e.pol.choose(ls.inputNormals, ls.inputDelegates, 0, 0, lp.fb, l.exchanger)
	for iter := sch.first; ; iter++ {
		// ---- Fault injection (chaos testing): an armed injector may crash
		// this rank at the iteration boundary — a real panic the containment
		// boundary must recover and turn into an all-rank abort.
		if in := e.opts.Inject; in != nil {
			in.Crash(rank, int(iter), faults.SiteIter)
		}
		// ---- Exchange policy: the strategy decided for this iteration from
		// globally known inputs, the way direction optimization derives push
		// vs pull (policy.go).
		ex := l.exchanger(ls.strategy)
		ls.iter, ls.ex = iter, ex
		// ---- Local computation (all GPUs of this rank).
		l.kernels(iter)

		// ---- Pre-exchange rendezvous, the first of the superstep's two. It
		// carries the delegate reduction — local OR to "GPU0", then the
		// global OR across ranks, skipped entirely on iterations without
		// updates anywhere (the S' < S saving of §V-A) — and the all-pairs
		// messages, posted before it (exchange.go). Whether any rank proposed
		// is the reduce's own result, so a superstep without delegate updates
		// touches no proposal at all.
		words, proposed := l.proposal()
		l.post(comm, ex, iter)
		ls.reduced = comm.AllreduceFused(words, proposed, nil, nil)
		ls.dc = l.commit(ls.reduced, iter)
		dc := &ls.dc

		// ---- Frontier exchange (§V-B) and apply.
		counts := l.exchange(comm, ex, iter)
		ls.work = l.tally()
		work := &ls.work

		// ---- Timing assembly (model time, reduced across ranks).
		comp := work.comp
		// An injected stall charges this rank extra simulated seconds; the
		// max-reduce below propagates the skew exactly like a slow kernel.
		// Timing only — levels and parents stay bit-identical.
		if in := e.opts.Inject; in != nil {
			comp += in.Stall(rank, int(iter), faults.SiteIter)
		}
		// Timing uses amplified volumes (scale-model, see Options).
		aSent, aRecv, aIntra := e.ampBytes(counts.sent), e.ampBytes(counts.recv), e.ampBytes(counts.intra)
		// Local NVLink moves the proposal in its native form; only the
		// inter-rank allreduce ships the codec-encoded size.
		aMask := e.ampBytes(dc.native)
		hier := e.hierExchange()
		var localComm float64
		if ls.reduced {
			localComm += e.opts.Net.LocalReduce(aMask, pgpu)
			localComm += e.opts.Net.LocalBroadcast(aMask, pgpu)
		}
		if hier {
			// The intra-rank aggregation and the send/recv staging copies
			// ride the exchange schedule (remoteTime) as NVLink stages; only
			// the intra-rank direct applies stay here. The tier's exposed
			// remainder — whatever the hop pipeline could not hide — is
			// folded back into LocalComm by the closer (rt.nvlinkExposed), so
			// remote-normal stays a pure wire+codec quantity.
			localComm += e.opts.Net.Staging(aIntra)
		} else {
			// One GPU per rank: no sibling to aggregate with or apply to, and
			// the staging copies are charged serially.
			localComm += e.opts.Net.Staging(aSent) + e.opts.Net.Staging(aRecv)
		}
		var remoteDelegate float64
		if ls.reduced {
			remoteDelegate = e.opts.Net.Allreduce(e.ampBytes(dc.wire), prank, e.opts.BlockingReduce)
		}
		// Delegate-mask codec compute is charged exposed (the mask allreduce
		// serializes with its encode); the exchange's own codec work rides
		// the per-hop vectors below, so the butterfly can hide it under hop
		// transfers.
		maskCodecSecs := e.opts.GPU.CodecTime(e.ampBytes(dc.codecRaw))
		// The max section: the four scalars as bit patterns (non-negative
		// doubles order as their bits), then the per-hop wire volumes and
		// codec stages (amplified), so the closer derives the remote-normal
		// time from the global per-hop maxima — the hops are synchronized
		// pairwise exchanges, so the slowest rank paces each transfer and
		// each codec stage.
		mx := append(ls.mx[:0], fbits(comp), fbits(localComm), fbits(remoteDelegate), fbits(maskCodecSecs))
		for _, hop := range [...][]int64{counts.hopBytes, counts.hopCodecRaw, counts.hopRecvBytes} {
			for _, b := range hop {
				mx = append(mx, e.ampBytes(b))
			}
		}
		// The hierarchical aggregation's NVLink volume rides the reduce so
		// the slowest rank paces the pre stage like everything else.
		var aggBytes int64
		if hier {
			aggBytes = e.ampBytes(e.aggregationBytes(counts.sentRaw - counts.forwarded))
		}
		// The last entry is this rank's originated fixed-width volume
		// (forwards excluded) — its maximum over the mean per-rank volume is
		// the strategy-independent partition-skew signal the policy feeds
		// back (relays would inflate a wire-byte measure on butterfly
		// iterations).
		mx = append(mx, e.ampBytes(counts.preCodecRaw), aggBytes, e.ampBytes(counts.sentRaw-counts.forwarded))
		ls.mx = mx

		// ---- Post-exchange rendezvous, the second and last: the timing
		// vector's maxima (model time) and the global sums —
		// work stats, the termination flag (kept alive through pending seed
		// levels) and the context observation (any rank seeing a dead context
		// aborts all ranks on the same iteration). Its closer prices, records
		// and decides for every rank.
		flag := int64(0)
		if work.nextNormals > 0 || dc.visits > 0 || iter < sch.lastSeed {
			flag = 1
		}
		ctxDead := int64(0)
		if ctx.Err() != nil {
			ctxDead = 1
		}
		sums := append(ls.sums[:0], work.edges, counts.sent, work.nextNormals, counts.dups, flag,
			counts.sentRaw, counts.scheme[wire.SchemeRaw], counts.scheme[wire.SchemeDelta], counts.scheme[wire.SchemeBitmap],
			counts.messages, counts.forwarded, counts.codecRaw+dc.codecRaw, ctxDead)
		ls.sums = sums
		comm.AllreduceFusedClose(nil, false, mx, sums, closer)

		l.rotate()
		if lp.stop {
			break
		}
		ls.decision = lp.next
	}
	if !e.rec.cancelled {
		l.finish(comm)
	}
}

// closeSuperstep is the closer of a superstep's post-exchange rendezvous, run
// by the last rank to reach it — ls, l and sch that rank's — on the reduced
// timing maxima mx and sums. It prices the superstep, records
// it, feeds the policy back and decides the next superstep, or that there is
// none, for every rank.
func (e *runEnv) closeSuperstep(ls *loopScratch, l lanes, sch *schedule, mx, sums []int64) {
	lp, rec := &e.loop, &e.rec
	// Behind the four scalars' bit patterns sit the three per-hop vectors,
	// the pre stage, the aggregation and the originated volume, in the order
	// they were appended.
	nh := ls.ex.rounds()
	maskSecs, maskCodecSecs := floatOf(mx[2]), floatOf(mx[3])
	rt := ls.ex.remoteTime(remoteVolumes{
		hopBytes:    mx[4 : 4+nh],
		hopCodecRaw: mx[4+nh : 4+2*nh],
		hopRecv:     mx[4+2*nh : 4+3*nh],
		preCodecRaw: mx[4+3*nh],
		aggBytes:    mx[5+3*nh],
		maskWire:    e.ampBytes(ls.dc.wire),
		maskSecs:    maskSecs,
	})
	parts := metrics.Breakdown{
		Computation:    floatOf(mx[0]),
		LocalComm:      floatOf(mx[1]) + rt.nvlinkExposed,
		RemoteNormal:   rt.seconds + maskCodecSecs,
		RemoteDelegate: rt.maskSecs,
	}
	elapsed := e.iterElapsed(parts, lp.sync)

	d, dir := &ls.decision, &lp.lead.work
	rec.PerIteration = append(rec.PerIteration, metrics.IterationStats{
		Iteration:         int(ls.iter),
		FrontierNormals:   d.inputNormals,
		FrontierDelegates: d.inputDelegates,
		DirDD:             dir.dirDD,
		DirDN:             dir.dirDN,
		DirND:             dir.dirND,
		Exchange:          d.strategy.String(),
		EdgesScanned:      sums[0],
		BytesNormal:       sums[1],
		BytesNormalRaw:    sums[5],
		BytesDelegate:     ls.dc.wire,
		Elapsed:           elapsed,
		PredictedRemote:   d.predicted,
		CodecHidden:       rt.hiddenCodec,
		CodecExposed:      rt.codecSeconds - rt.hiddenCodec + maskCodecSecs,
		NVLinkHidden:      rt.hiddenNVLink,
		NVLinkExposed:     rt.nvlinkSeconds - rt.hiddenNVLink,
		Parts:             parts,
	})
	rec.EdgesScanned += sums[0]
	rec.DupsRemoved += sums[3]
	rec.SimSeconds += elapsed
	rec.Parts.Add(parts)
	rec.Wire.CompressedBytes += sums[1]
	rec.Wire.RawBytes += sums[5]
	rec.Wire.SchemeRaw += sums[6]
	rec.Wire.SchemeDelta += sums[7]
	rec.Wire.SchemeBitmap += sums[8]
	rec.Exchange.Messages += sums[9]
	rec.Exchange.ForwardedBytes += sums[10]
	rec.Wire.CodecBytes += sums[11]
	rec.Wire.CodecSeconds += rt.codecSeconds + maskCodecSecs
	rec.Exchange.HiddenCodecSeconds += rt.hiddenCodec
	rec.Exchange.PipelineStalls += rt.stalls
	rec.Exchange.NVLinkSeconds += rt.nvlinkSeconds
	rec.Exchange.HiddenNVLinkSeconds += rt.hiddenNVLink
	rec.Exchange.MaskFoldSavedSeconds += maskSecs - rt.maskSecs
	if ls.reduced && e.opts.Compression != wire.ModeOff {
		rec.Wire.MaskRawBytes += ls.dc.native
		rec.Wire.MaskWireBytes += ls.dc.wire
	}
	rec.Exchange.PredictedSeconds += d.predicted
	if d.strategy == ExchangeButterfly {
		rec.Exchange.ButterflyIterations++
	} else {
		rec.Exchange.AllPairsIterations++
	}
	rec.Exchange.HopsPerIteration = max(rec.Exchange.HopsPerIteration, nh)
	rec.Exchange.MaxMessageBytes = max(rec.Exchange.MaxMessageBytes, rt.maxMsg)
	if ls.reduced {
		rec.DelegateComms++
	}

	// Measured feedback for the next decision: the reduced maximum per-rank
	// originated volume over the mean (skew, gated on iterations that carried
	// real payload — framing-dominated rounds would measure noise), and the
	// executed strategy's actual vs raw-predicted exchange time
	// (calibration).
	originated := sums[5] - sums[10]
	skewMax, skewMean, wireRatio := 0.0, 0.0, 0.0
	if originated >= int64(e.shape.Ranks())*skewGateRawBytes {
		skewMax = float64(mx[6+3*nh])
		skewMean = float64(e.ampBytes(originated)) / float64(e.shape.Ranks())
		wireRatio = float64(sums[1]) / float64(sums[5])
	}
	fb := &lp.fb
	fb.observe(d.strategy, d.predicted/fb.calib[d.strategy], rt.seconds, skewMax, skewMean, wireRatio)

	rec.cancelled = sums[12] > 0
	lp.stop = rec.cancelled || sums[4] == 0
	if lp.stop {
		// Final calibration factors: recorded only for strategies that
		// actually executed (0 means no feedback accumulated — see
		// ExchangeStats).
		if rec.Exchange.AllPairsIterations > 0 {
			rec.Exchange.CalibrationAllPairs = fb.calib[ExchangeAllPairs]
		}
		if rec.Exchange.ButterflyIterations > 0 {
			rec.Exchange.CalibrationButterfly = fb.calib[ExchangeButterfly]
		}
		rec.Exchange.SkewEWMA = fb.skew
		rec.Exchange.WireRatioEWMA = fb.wireRatio
		return
	}
	// The policy's volume feedback is the fixed-width originated bytes (raw
	// sent minus forwarded) — a strategy-independent measure, so a butterfly
	// iteration's relayed volume never inflates the next prediction. Seeds
	// injecting at the next level are part of its known input frontier.
	next := decision{inputNormals: sums[2], inputDelegates: ls.dc.visits, prevNormals: d.inputNormals, prevOriginated: originated}
	if ls.iter < sch.lastSeed {
		next.inputNormals += sch.nSeeds[ls.iter+1]
		next.inputDelegates += sch.dSeeds[ls.iter+1]
	}
	next.strategy, next.predicted = e.pol.choose(next.inputNormals, next.inputDelegates, next.prevNormals, next.prevOriginated, *fb, l.exchanger)
	lp.next = next
}

// sourceLanes is the single-source traversal's side of the loop: a rank's
// gpuStates under a wave, a d-bit delegate mask for a proposal and local ids
// for a payload.
type sourceLanes struct {
	e      *Session
	rank   int
	gpus   []*gpuState
	sc     *rankScratch
	source int64
	w      wave
	// dups is what the superstep's Uniquify removed from the bins (post).
	dups int64
}

// rankGPUs returns the per-GPU states rank owns.
func (e *Session) rankGPUs(rank int) []*gpuState {
	pgpu := e.shape.GPUsPerRank
	return e.gpus[rank*pgpu : (rank+1)*pgpu]
}

// runWave runs the superstep loop for one rank of a single-source traversal,
// entered with the frontier and any seed schedule for w already in place.
func (e *Session) runWave(ctx context.Context, rank int, comm *mpi.Comm, source int64, w wave) {
	sc := e.scratch[rank]
	clear(sc.dt.rec) // the kernels fold into it from empty
	e.exchangers(rank)
	sc.lanes = sourceLanes{e: e, rank: rank, gpus: e.rankGPUs(rank), sc: sc, source: source, w: w}
	e.runRank(ctx, rank, comm, &sc.lanes, &sc.loopScratch, w.schedule)
}

// exchangers binds rank's strategy instances to this query, with the rank's
// lanes for their payload.
func (e *Session) exchangers(rank int) *rankExchangers {
	sc := e.scratch[rank]
	return sc.rx.bind(&e.runEnv, rank, &sc.exchangeScratch, &sc.lanes)
}

// kernels advances a repair's seed schedules with the wave (a cold run's are
// empty — its source is already in the frontier) and runs the kernels on each
// of the rank's GPUs.
func (l *sourceLanes) kernels(iter int32) {
	l.e.injectSeeds(l.gpus, l.sc, iter)
	for _, gs := range l.gpus {
		gs.it = iterWork{}
		l.e.runKernels(gs, iter)
	}
}

// proposal ORs the GPUs' new-delegate masks into the rank's. Only a rank whose
// GPUs proposed a delegate builds any words.
func (l *sourceLanes) proposal() ([]uint64, bool) {
	rankMask := l.sc.rankMask // fully overwritten by CopyFrom
	proposed := false
	for _, gs := range l.gpus {
		if !gs.newDirty {
			continue
		}
		if proposed {
			rankMask.Or(gs.newMask)
		} else {
			rankMask.CopyFrom(gs.newMask)
			proposed = true
		}
	}
	return rankMask.Words(), proposed
}

// commit takes every reduced bit at level iter+1 without re-testing it:
// delegate levels are the rank's replica and change only here, so a bit a
// kernel proposed because the level it saw was unset or deeper than iter+1
// still passes that test now. (visited is read by the backward kernels only;
// a repair, which never runs backward, just carries it.)
func (l *sourceLanes) commit(reduced bool, iter int32) (dc delegateCommit) {
	e, sc, dt := l.e, l.sc, &l.sc.dt
	if !reduced {
		if dt.frontN > 0 {
			dt.front.Reset()
			dt.frontN = 0
		}
		return dc
	}
	rankMask := sc.rankMask
	dc.visits = rankMask.Count()
	if l.w.repair != nil {
		sc.members.Or(rankMask)
	}
	rankMask.ForEach(func(di int64) { dt.level[di] = iter + 1 })
	dt.visitedForWrite().Or(rankMask)
	dt.front.CopyFrom(rankMask)
	dt.frontN = dc.visits
	for _, gs := range l.gpus {
		if gs.newDirty {
			gs.newMask.Reset()
			gs.newDirty = false
		}
	}
	// Delegate-aware mask encoding: with a codec active, the reduced
	// delegate mask rides the same adaptive raw/delta/bitmap selection as
	// the normal payloads. Dense early-BFS masks stay in their native bitmap
	// form (the encoder can't beat d/8 bytes), but the sparse late-iteration
	// masks shrink to delta streams. Every rank encodes the identical
	// reduced mask, so the effective size — what the timing model charges
	// the global allreduce — is deterministic across ranks.
	dc.native = rankMask.ByteSize()
	dc.wire = dc.native
	if e.opts.Compression != wire.ModeOff && e.d-1 <= int64(^uint32(0)) {
		ids := sc.maskIDs[:0]
		rankMask.ForEach(func(di int64) { ids = append(ids, uint32(di)) })
		sc.maskIDs = ids
		if enc := wire.EncodedMaskBytes(ids, e.opts.Compression); enc < dc.native {
			dc.wire = enc
			dc.codecRaw = 4 * int64(len(ids))
		}
	}
	return dc
}

func (l *sourceLanes) exchanger(strategy Exchange) exchanger { return l.sc.rx.get(strategy) }

// width, destinations and stage make the lanes the exchange's payload: plain
// ids, staged by mergeForRank.
func (l *sourceLanes) width() int { return 0 }

func (l *sourceLanes) destinations(has []bool) {
	pgpu := l.e.shape.GPUsPerRank
	for _, gs := range l.gpus {
		if gs.it.binned == 0 {
			continue
		}
		for g, bin := range gs.bins.PerGPU {
			if len(bin) > 0 {
				has[g/pgpu] = true
			}
		}
	}
}

func (l *sourceLanes) stage(dst int, row *wire.Section) int64 {
	return 4 * l.e.mergeForRank(l.gpus, dst, l.sc, row.Slots, row.Hints)
}

// post runs the paper's U option, when it is on, before the strategy stages
// anything: each GPU that binned ids sorts and compacts its bins.
func (l *sourceLanes) post(comm *mpi.Comm, ex exchanger, iter int32) {
	e, sc := l.e, l.sc
	l.dups = 0
	if e.opts.Uniquify {
		for _, gs := range l.gpus {
			if gs.it.binned == 0 {
				continue
			}
			l.dups += gs.bins.UniquifyAll(&sc.sortBuf)
			// Uniquify is extra local work (sort + compact).
			if c := gs.bins.Count(); c > 0 {
				gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
					Vertices: 2 * c, Strategy: simgpu.TWBDynamic,
				})
			}
		}
	}
	ex.post(comm, iter)
}

// exchange is the normal-vertex exchange (§V-B): the inter-rank strategy and
// the apply of everything that arrives.
func (l *sourceLanes) exchange(comm *mpi.Comm, ex exchanger, iter int32) *exchangeCounts {
	return l.deliver(comm, ex, iter, applyIDs)
}

// deliver is exchange with the per-slot apply of what arrives as a parameter.
func (l *sourceLanes) deliver(comm *mpi.Comm, ex exchanger, iter int32, apply func(gs *gpuState, ids []uint32, depth int32)) *exchangeCounts {
	e, sc, myGPUs := l.e, l.sc, l.gpus
	pgpu := e.shape.GPUsPerRank
	// Inter-rank exchange through this iteration's strategy (all-pairs
	// posts, or the butterfly's log(p) hops — see exchange.go).
	counts := ex.exchange(comm, iter)
	counts.dups = l.dups
	// Intra-rank cross-GPU bins apply directly (NVLink, not NIC).
	for _, src := range myGPUs {
		for s := 0; s < pgpu; s++ {
			dstGPU := l.rank*pgpu + s
			if dstGPU == src.pg.GPU {
				continue
			}
			ids := src.bins.PerGPU[dstGPU]
			counts.intra += 4 * int64(len(ids))
			apply(e.gpus[dstGPU], ids, iter+1)
		}
	}
	// Remote arrivals apply in canonical ascending order so every
	// exchange strategy yields the identical output-frontier order (and
	// hence identical parents downstream): a slot the exchange delivers as
	// the union of its hops' sections is in that order already, any other is
	// sorted here. A repeat changes nothing — the first copy claims the
	// vertex or sets its child bit, the rest find that done. On the real GPU
	// the apply is an order-independent parallel scatter, so no extra time
	// is charged for the canonicalization.
	for s, ids := range counts.arrivals {
		if counts.arrivalHints == nil || counts.arrivalHints[s] != wire.HintSet {
			frontier.SortIDs(ids, &sc.sortBuf)
		}
		apply(myGPUs[s], ids, iter+1)
	}
	// Scatter cost of applying received ids on the destination GPUs: every
	// id that came in, before any union.
	if applied := counts.arrived + counts.intra/4; applied > 0 {
		myGPUs[0].it.normalStream += e.charge(myGPUs[0].dev, simgpu.KernelCost{
			Vertices: applied, Strategy: simgpu.TWBDynamic,
		})
	}
	// Only a GPU that binned something has bins to empty.
	for _, gs := range myGPUs {
		if gs.it.binned > 0 {
			gs.bins.Reset()
		}
	}
	return counts
}

func (l *sourceLanes) tally() (w superstepWork) {
	for _, gs := range l.gpus {
		w.comp = max(w.comp, streamCombine(gs.it.delegateStream, gs.it.normalStream))
		w.nextNormals += int64(len(gs.outFront))
		w.edges += gs.it.edgesScanned
	}
	dir0 := l.gpus[0]
	w.dirDD, w.dirDN, w.dirND = dir0.dirDD, dir0.dirDN, dir0.dirND
	return w
}

// rotate makes the output frontier the next superstep's input. A repair lists
// it for its finisher first: the output frontier is exactly what the superstep
// re-levelled.
func (l *sourceLanes) rotate() {
	for _, gs := range l.gpus {
		if l.w.repair != nil {
			gs.rep = append(gs.rep, gs.outFront...)
		}
		gs.inFront, gs.outFront = gs.outFront, gs.inFront[:0]
	}
}

// finish resolves and gathers the rank's share of the result, when the query
// collects one: a repair's by patching the prior tree where that is less work
// (finishRepair), a cold run's from nothing (finishQuery).
func (l *sourceLanes) finish(comm *mpi.Comm) {
	switch {
	case !l.e.collects():
	case l.w.repair != nil:
		l.e.finishRepair(l.rank, comm, l.w.repair)
	default:
		l.e.finishQuery(l.rank, comm, l.source)
	}
}

// applyIDs is the visit rule for received local ids claiming the given depth
// (duplicates, and ids whose level the rule does not improve, are ignored, as
// on the receiving GPU). Parents are resolved canonically after the traversal
// (parents.go), which wants one thing of an ignored id: a vertex two levels
// above depth was pushed by an nn neighbor one level below it
// (gpuState.hasChild).
func applyIDs(gs *gpuState, ids []uint32, depth int32) {
	for _, id := range ids {
		if lvl := gs.levels[id]; improves(lvl, depth-1) {
			gs.discover(id, depth)
		} else if lvl == depth-2 {
			gs.hasChild.Set(int64(id))
		}
	}
}
