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
// first) → the pre-exchange rendezvous → delegate commit → frontier exchange
// and apply → timing assembly → the post-exchange rendezvous — the
// communication structure of §V. Everything a traversal may vary sits behind
// the lanes interface below; fault injection sites, the modelled clock's
// assembly, the statistics and the terminate/cancel protocol are this one
// loop's and nobody else's. A cold BFS and a repair share more than the loop:
// one lanes implementation (sourceLanes), one kernel set and one visit rule
// (kernels.go). A repair differs only in what it starts from (its seed
// schedule and preloaded levels), in running forward only, and in its
// finisher. A sweep has its own lanes.
//
// A superstep is exactly two rendezvous (mpi.AllreduceFused; a test counts
// them), because on the host a rendezvous — parking and waking every rank
// goroutine — costs more than anything a near-empty superstep computes:
//
//   - pre-exchange: the delegate proposal's OR, contributed only by ranks
//     whose GPUs proposed a delegate — "did anyone?" is the reduce's own
//     result, no separate vote — plus, on an all-pairs iteration, every rank's
//     row of the destination-presence matrix (sum section; each word has one
//     writer), from which both ends of a (src, dst) pair agree whether that
//     message is really delivered (exchange.go).
//   - post-exchange: the timing vector's element-wise maxima (non-negative
//     doubles as bit patterns, max section) and the sums — work counters,
//     the terminate vote and the context observation.
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
	// exchange moves the superstep's frontier payload through ex and applies
	// everything that arrives — over the wire or from a sibling GPU — at
	// level iter+1; present is the reduced matrix ex.announce contributed to.
	exchange(comm *mpi.Comm, ex exchanger, iter int32, present []int64) exchangeCounts
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
	// present is the all-pairs exchange's destination-presence matrix: this
	// rank's row going into the pre-exchange reduce, every rank's coming out
	// (see presence in exchange.go). Empty on butterfly iterations.
	present []int64
	// vec and sums are the post-exchange reduce's payloads; fbits is the
	// float-max section's bit-pattern view of vec, and red the reduced
	// per-hop vectors read back out of it.
	vec              []float64
	sums, fbits, red []int64
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

// recorder collects per-iteration statistics (runEnv.rec); only rank 0
// writes to it, and the main goroutine reads it after all ranks join.
type recorder struct {
	iterations    []metrics.IterationStats
	delegateComms int
	edgesScanned  int64
	dupsRemoved   int64
	simSeconds    float64
	parts         metrics.Breakdown
	wire          metrics.WireStats
	exchange      metrics.ExchangeStats
	// cancelled is set by rank 0 when the query aborted on its context; all
	// ranks observe the same reduced cancellation flag, so they break the
	// BSP loop on the same iteration and no collective is left half-entered.
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
		for _, gs := range e.gpus {
			gs.visitedForWrite().Set(di)
			gs.frontDelegate(di)
			gs.delegateLevel[di] = 0
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
	e.begin()
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
	rec := &e.rec
	res := &metrics.RunResult{
		Source:        source,
		Epoch:         e.epoch,
		Iterations:    len(rec.iterations),
		SimSeconds:    rec.simSeconds,
		TEPSEdges:     e.sg.M / 2,
		EdgesScanned:  rec.edgesScanned,
		DupsRemoved:   rec.dupsRemoved,
		Parts:         rec.parts,
		PerIteration:  rec.iterations,
		DelegateComms: rec.delegateComms,
		Wire:          rec.wire,
		Exchange:      rec.exchange,
		Levels:        e.out.levels,
		Parents:       e.out.parents,
		ParentPairs:   e.parentExchangePairs,
	}
	res.Wire.Enabled = e.opts.Compression != wire.ModeOff
	res.Wire.PairRawBytes = e.parentPairRawBytes
	res.Wire.PairWireBytes = e.parentPairWireBytes
	e.out, e.rec = treeOut{}, recorder{}
	return res
}

// runRank is the per-rank BSP loop ("the CPU thread that controls GPU0"
// performs the global phases, §V-A), entered with l's frontier and any seeds
// sch schedules already in place.
func (e *runEnv) runRank(ctx context.Context, rank int, comm *mpi.Comm, l lanes, ls *loopScratch, sch schedule) {
	rec, pol := &e.rec, e.pol
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	cancelled := false

	// Input frontier sizes of the upcoming iteration (globally known), plus
	// the previous iteration's measured volume — the policy's feedback.
	inputNormals, inputDelegates := sch.nSeeds[sch.first], sch.dSeeds[sch.first]
	prevNormals, prevOriginated := int64(0), int64(0)
	// Measured-feedback state (skew ratio + per-strategy calibration):
	// every rank keeps its own copy, updated from globally reduced values
	// only, so the copies stay bit-identical and decisions need no extra
	// collective.
	fb := newPolicyFeedback()

	for iter := sch.first; ; iter++ {
		// ---- Fault injection (chaos testing): an armed injector may crash
		// this rank at the iteration boundary — a real panic the containment
		// boundary must recover and turn into an all-rank abort.
		if in := e.opts.Inject; in != nil {
			in.Crash(rank, int(iter), faults.SiteIter)
		}
		// ---- Exchange policy: every rank derives the identical strategy
		// decision for this iteration from globally known inputs, the way
		// direction optimization derives push vs pull (policy.go).
		strategy, predicted := pol.choose(inputNormals, inputDelegates, prevNormals, prevOriginated, fb, l.exchanger)
		ex := l.exchanger(strategy)
		// ---- Local computation (all GPUs of this rank).
		l.kernels(iter)

		// ---- Pre-exchange rendezvous, the first of the superstep's two. It
		// carries the delegate reduction — local OR to "GPU0", then the
		// global OR across ranks, skipped entirely on iterations without
		// updates anywhere (the S' < S saving of §V-A) — and the all-pairs
		// exchange's destination-presence rows (exchange.go). Whether any rank
		// proposed is the reduce's own result, so a superstep without delegate
		// updates touches no proposal at all.
		words, proposed := l.proposal()
		ls.present = ex.announce(ls.present[:0])
		reduced := comm.AllreduceFused(words, proposed, nil, ls.present)
		dc := l.commit(reduced, iter)

		// ---- Frontier exchange (§V-B) and apply.
		counts := l.exchange(comm, ex, iter, ls.present)
		work := l.tally()

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
		aMaskWire := e.ampBytes(dc.wire)
		hier := e.hierExchange()
		var localComm float64
		if reduced {
			localComm += e.opts.Net.LocalReduce(aMask, pgpu)
			localComm += e.opts.Net.LocalBroadcast(aMask, pgpu)
		}
		if hier {
			// The intra-rank aggregation and the send/recv staging copies
			// ride the exchange schedule (remoteTime) as NVLink stages; only
			// the intra-rank direct applies stay here. The tier's exposed
			// remainder — whatever the hop pipeline could not hide — is
			// folded back into LocalComm after the reduce (rt.nvlinkExposed
			// below), so remote-normal stays a pure wire+codec quantity.
			localComm += e.opts.Net.Staging(aIntra)
		} else {
			// One GPU per rank: no sibling to aggregate with or apply to, and
			// the staging copies are charged serially.
			localComm += e.opts.Net.Staging(aSent) + e.opts.Net.Staging(aRecv)
		}
		var remoteDelegate float64
		if reduced {
			remoteDelegate = e.opts.Net.Allreduce(aMaskWire, prank, e.opts.BlockingReduce)
		}
		// Delegate-mask codec compute is charged exposed (the mask allreduce
		// serializes with its encode); the exchange's own codec work rides
		// the per-hop vectors below, so the butterfly can hide it under hop
		// transfers.
		maskCodecSecs := e.opts.GPU.CodecTime(e.ampBytes(dc.codecRaw))
		// The per-hop wire volumes and codec stages ride along the reduced
		// vector (amplified) so every rank derives the identical
		// remote-normal time from the global per-hop maxima — the hops are
		// synchronized pairwise exchanges, so the slowest rank paces each
		// transfer and each codec stage.
		nh := len(counts.hopBytes)
		vec := ls.vec[:0]
		vec = append(vec, comp, localComm, remoteDelegate, maskCodecSecs)
		for _, hb := range counts.hopBytes {
			vec = append(vec, float64(e.ampBytes(hb)))
		}
		for _, cr := range counts.hopCodecRaw {
			vec = append(vec, float64(e.ampBytes(cr)))
		}
		for _, rb := range counts.hopRecvBytes {
			vec = append(vec, float64(e.ampBytes(rb)))
		}
		vec = append(vec, float64(e.ampBytes(counts.preCodecRaw)))
		// The hierarchical aggregation's NVLink volume rides the reduce so
		// the slowest rank paces the pre stage like everything else.
		var aggBytes int64
		if hier {
			aggBytes = e.ampBytes(e.aggregationBytes(counts.sentRaw - counts.forwarded))
		}
		vec = append(vec, float64(aggBytes))
		// The last entry is this rank's originated fixed-width volume
		// (forwards excluded) — its maximum over the mean per-rank volume is
		// the strategy-independent partition-skew signal the policy feeds
		// back (relays would inflate a wire-byte measure on butterfly
		// iterations).
		vec = append(vec, float64(e.ampBytes(counts.sentRaw-counts.forwarded)))
		ls.vec = vec

		// ---- Post-exchange rendezvous, the second and last: the timing
		// vector's maxima (model time, as bit patterns) and the global sums —
		// work stats, the termination flag (kept alive through pending seed
		// levels) and the context observation (any rank seeing a dead context
		// aborts all ranks on the same iteration).
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
		ls.fbits = floatBits(vec, ls.fbits)
		comm.AllreduceFused(nil, false, ls.fbits, sums)
		bitsToFloats(ls.fbits, vec)

		// The three reduced per-hop vectors sit back to back behind the four
		// scalars, in the order they were appended.
		red := grownInt64(ls.red, 3*nh)
		ls.red = red
		for i := range red {
			red[i] = int64(vec[4+i])
		}
		redMaxOriginated := vec[6+3*nh]
		rt := ex.remoteTime(remoteVolumes{
			hopBytes:    red[:nh],
			hopCodecRaw: red[nh : 2*nh],
			hopRecv:     red[2*nh:],
			preCodecRaw: int64(vec[4+3*nh]),
			aggBytes:    int64(vec[5+3*nh]),
			maskWire:    aMaskWire,
			maskSecs:    vec[2],
		})
		parts := metrics.Breakdown{
			Computation:    vec[0],
			LocalComm:      vec[1] + rt.nvlinkExposed,
			RemoteNormal:   rt.seconds + vec[3],
			RemoteDelegate: rt.maskSecs,
		}
		elapsed := e.iterElapsed(parts)

		if rank == 0 {
			rec.iterations = append(rec.iterations, metrics.IterationStats{
				Iteration:         int(iter),
				FrontierNormals:   inputNormals,
				FrontierDelegates: inputDelegates,
				DirDD:             work.dirDD,
				DirDN:             work.dirDN,
				DirND:             work.dirND,
				Exchange:          strategy.String(),
				EdgesScanned:      sums[0],
				BytesNormal:       sums[1],
				BytesNormalRaw:    sums[5],
				BytesDelegate:     dc.wire,
				Elapsed:           elapsed,
				PredictedRemote:   predicted,
				CodecHidden:       rt.hiddenCodec,
				CodecExposed:      rt.codecSeconds - rt.hiddenCodec + vec[3],
				NVLinkHidden:      rt.hiddenNVLink,
				NVLinkExposed:     rt.nvlinkSeconds - rt.hiddenNVLink,
				Parts:             parts,
			})
			rec.edgesScanned += sums[0]
			rec.dupsRemoved += sums[3]
			rec.simSeconds += elapsed
			rec.parts.Add(parts)
			rec.wire.CompressedBytes += sums[1]
			rec.wire.RawBytes += sums[5]
			rec.wire.SchemeRaw += sums[6]
			rec.wire.SchemeDelta += sums[7]
			rec.wire.SchemeBitmap += sums[8]
			rec.exchange.Messages += sums[9]
			rec.exchange.ForwardedBytes += sums[10]
			rec.wire.CodecBytes += sums[11]
			rec.wire.CodecSeconds += rt.codecSeconds + vec[3]
			rec.exchange.HiddenCodecSeconds += rt.hiddenCodec
			rec.exchange.PipelineStalls += rt.stalls
			rec.exchange.NVLinkSeconds += rt.nvlinkSeconds
			rec.exchange.HiddenNVLinkSeconds += rt.hiddenNVLink
			rec.exchange.MaskFoldSavedSeconds += vec[2] - rt.maskSecs
			if reduced && e.opts.Compression != wire.ModeOff {
				rec.wire.MaskRawBytes += dc.native
				rec.wire.MaskWireBytes += dc.wire
			}
			rec.exchange.PredictedSeconds += predicted
			if strategy == ExchangeButterfly {
				rec.exchange.ButterflyIterations++
			} else {
				rec.exchange.AllPairsIterations++
			}
			if hr := ex.rounds(); hr > rec.exchange.HopsPerIteration {
				rec.exchange.HopsPerIteration = hr
			}
			if rt.maxMsg > rec.exchange.MaxMessageBytes {
				rec.exchange.MaxMessageBytes = rt.maxMsg
			}
			if reduced {
				rec.delegateComms++
			}
		}
		// The policy's volume feedback is the fixed-width originated bytes
		// (raw sent minus forwarded) — a strategy-independent measure, so a
		// butterfly iteration's relayed volume never inflates the next
		// prediction.
		prevNormals, prevOriginated = inputNormals, sums[5]-sums[10]
		inputNormals, inputDelegates = sums[2], dc.visits
		// Seeds injecting at the next level are part of its known input
		// frontier — fold their globally reduced counts into the policy's
		// volume signal.
		if iter < sch.lastSeed {
			inputNormals += sch.nSeeds[iter+1]
			inputDelegates += sch.dSeeds[iter+1]
		}
		// Measured feedback for the next decision: the reduced maximum
		// per-rank originated volume over the mean (skew, gated on
		// iterations that carried real payload — framing-dominated rounds
		// would measure noise), and the executed strategy's actual vs
		// raw-predicted exchange time (calibration). All inputs are
		// globally reduced, so every rank's feedback copy stays identical.
		skewMax, skewMean, wireRatio := 0.0, 0.0, 0.0
		if originated := sums[5] - sums[10]; originated >= int64(prank)*skewGateRawBytes {
			skewMax = redMaxOriginated
			skewMean = float64(e.ampBytes(originated)) / float64(prank)
			wireRatio = float64(sums[1]) / float64(sums[5])
		}
		fb.observe(strategy, predicted/fb.calib[strategy], rt.seconds, skewMax, skewMean, wireRatio)

		l.rotate()
		if sums[12] > 0 {
			cancelled = true
			if rank == 0 {
				rec.cancelled = true
			}
			break
		}
		if sums[4] == 0 {
			break
		}
	}

	// Final calibration factors: recorded only for strategies that actually
	// executed (0 means no feedback accumulated — see ExchangeStats).
	if rank == 0 {
		if rec.exchange.AllPairsIterations > 0 {
			rec.exchange.CalibrationAllPairs = fb.calib[ExchangeAllPairs]
		}
		if rec.exchange.ButterflyIterations > 0 {
			rec.exchange.CalibrationButterfly = fb.calib[ExchangeButterfly]
		}
		rec.exchange.SkewEWMA = fb.skew
		rec.exchange.WireRatioEWMA = fb.wireRatio
	}

	if !cancelled {
		l.finish(comm)
	}
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
	gpus := e.rankGPUs(rank)
	if gpus[0].tree != nil {
		sc.parents.candidates(e.d) // the kernels fold into it from empty
	}
	e.exchangers(rank)
	sc.lanes = sourceLanes{e: e, rank: rank, gpus: gpus, sc: sc, source: source, w: w}
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
// delegate levels are replicated and change only here, so a bit a kernel
// proposed because the level it saw was unset or deeper than iter+1 still
// passes that test now, on every GPU. (visited is read by the backward
// kernels only; a repair, which never runs backward, just carries it.)
func (l *sourceLanes) commit(reduced bool, iter int32) (dc delegateCommit) {
	e, sc := l.e, l.sc
	if !reduced {
		for _, gs := range l.gpus {
			if gs.dFrontN > 0 {
				gs.dFront.Reset()
				gs.dFrontN = 0
			}
		}
		return dc
	}
	rankMask := sc.rankMask
	dc.visits = rankMask.Count()
	if l.w.repair != nil {
		sc.members.Or(rankMask)
	}
	for _, gs := range l.gpus {
		rankMask.ForEach(func(di int64) { gs.delegateLevel[di] = iter + 1 })
		gs.visitedForWrite().Or(rankMask)
		gs.dFront.CopyFrom(rankMask)
		gs.dFrontN = dc.visits
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

func (l *sourceLanes) destinations(mine []int64) {
	pgpu := l.e.shape.GPUsPerRank
	for _, gs := range l.gpus {
		if gs.it.binned == 0 {
			continue
		}
		for g, bin := range gs.bins.PerGPU {
			if len(bin) > 0 {
				markRank(mine, g/pgpu)
			}
		}
	}
}

func (l *sourceLanes) stage(dst int, row *wire.Section) int64 {
	return 4 * l.e.mergeForRank(l.gpus, dst, l.sc, row.Slots, row.Hints)
}

// exchange is the normal-vertex exchange (§V-B): uniquify, the inter-rank
// strategy, and the apply of everything that arrives.
func (l *sourceLanes) exchange(comm *mpi.Comm, ex exchanger, iter int32, present []int64) exchangeCounts {
	return l.deliver(comm, ex, iter, present, applyIDs)
}

// deliver is exchange with the per-slot apply of what arrives as a parameter.
func (l *sourceLanes) deliver(comm *mpi.Comm, ex exchanger, iter int32, present []int64, apply func(gs *gpuState, ids []uint32, depth int32)) exchangeCounts {
	e, sc, myGPUs := l.e, l.sc, l.gpus
	pgpu := e.shape.GPUsPerRank
	var dups int64
	if e.opts.Uniquify {
		for _, gs := range myGPUs {
			dups += gs.bins.UniquifyAll(&sc.sortBuf)
			// Uniquify is extra local work (sort + compact).
			if c := gs.bins.Count(); c > 0 {
				gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
					Vertices: 2 * c, Strategy: simgpu.TWBDynamic,
				})
			}
		}
	}
	// Inter-rank exchange through this iteration's strategy (all-pairs
	// sends, or the butterfly's log(p) hops — see exchange.go).
	counts := ex.exchange(comm, iter, present)
	counts.dups = dups
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
	for _, gs := range myGPUs {
		gs.bins.Reset()
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
