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

// This file is the BSP superstep loop (Figs. 3 and 4) of every single-source
// traversal — a cold BFS and a delta repair alike. Session.traverse launches
// one goroutine per rank; each runs Session.runRank, whose superstep is, in
// order: seed injection → exchange-policy decision → local kernels on the
// rank's GPUs → the pre-exchange rendezvous → delegate-mask commit →
// normal-vertex exchange and canonical apply → timing assembly → the
// post-exchange rendezvous — the communication structure of §V. What differs
// between a cold run and a repair is named by a wave value chosen once before
// the loop; everything else is this one loop.
//
// A superstep is exactly two rendezvous (mpi.AllreduceFused; a test counts
// them), because on the host a rendezvous — parking and waking every rank
// goroutine — costs more than anything a near-empty superstep computes:
//
//   - pre-exchange: the delegate-mask OR, contributed only by ranks whose
//     GPUs proposed a delegate — "did anyone?" is the reduce's own result, no
//     separate vote — plus, on an all-pairs iteration, every rank's row of
//     the destination-presence matrix (sum section; each word has one
//     writer), from which both ends of a (src, dst) pair agree whether that
//     message is really delivered (exchange.go).
//   - post-exchange: the timing vector's element-wise maxima (non-negative
//     doubles as bit patterns, max section) and the sums — work counters,
//     the terminate vote and the context observation.
//
// The modelled clock sees none of this: every charge, wire byte and message
// count is computed as if each collective and each empty message were its
// own, which is what the paper's machine would do.

// wave is what a traversal may vary about the superstep loop.
type wave struct {
	// first is the level of the first superstep; lastSeed the deepest level
	// holding scheduled seeds, through which the loop stays alive even with
	// an empty frontier.
	first, lastSeed int32
	// nSeeds and dSeeds are the global normal and delegate seed counts per
	// level (indexed by level, through lastSeed): the part of a level's input
	// frontier that is known before the wave reaches it, which the exchange
	// policy's volume signal needs.
	nSeeds, dSeeds []int64
	// kernels runs one superstep's local computation on a rank's GPUs;
	// apply is the per-id visit rule for ids that arrive over the exchange.
	// A cold run has no prior levels: its kernels test the visited bitmask
	// and may pull backwards, and arrivals claim unvisited vertices only. A
	// repair's kernels test the preloaded levels for strict improvement.
	kernels func(e *Session, myGPUs []*gpuState, iter int32)
	apply   func(gs *gpuState, ids []uint32, depth int32)
}

// The cold run's seed schedule is its source alone, at level 0 (read-only).
var oneSeed, noSeed = []int64{1}, []int64{0}

// recorder collects per-iteration statistics (Session.rec); only rank 0
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
	return e.traverse(ctx, source, func(rank int, comm *mpi.Comm) {
		e.runRank(ctx, rank, comm, source, w)
	})
}

// coldWave resets the session and seeds a cold BFS: the source enters the
// frontier at depth 0 and the loop runs the direction-optimizing kernels.
func (e *Session) coldWave(source int64) wave {
	e.reset()
	w := wave{nSeeds: oneSeed, dSeeds: noSeed, kernels: (*Session).coldKernels, apply: applyIDs}
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
// freshly reset session and assembles the result. A fault poisons the
// session; a cancelled query returns the context's error.
func (e *Session) traverse(ctx context.Context, source int64, body func(rank int, comm *mpi.Comm)) (*metrics.RunResult, error) {
	e.out = newTreeOut(&e.opts, e.sg.N)
	e.rec = recorder{}
	e.rec.exchange.Strategy = e.opts.Exchange.String()
	e.pol = e.newExchangePolicy()
	if err := RunRanks(e.acquireWorld(), e.opts.Inject, tagSite, body); err != nil {
		e.poisoned = true
		return nil, err
	}
	if e.rec.cancelled {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
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
// performs the global phases, §V-A), entered with the frontier and any seed
// schedule for w already in place.
func (e *Session) runRank(ctx context.Context, rank int, comm *mpi.Comm, source int64, w wave) {
	rec, pol := &e.rec, e.pol
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	myGPUs := e.gpus[rank*pgpu : (rank+1)*pgpu]
	sc := e.scratch[rank]
	rankMask := sc.rankMask // fully overwritten by CopyFrom each iteration
	maskBytes := rankMask.ByteSize()
	rx := sc.rx.bind(e, rank, sc)
	cancelled := false

	// Input frontier sizes of the upcoming iteration (globally known), plus
	// the previous iteration's measured volume — the policy's feedback.
	inputNormals, inputDelegates := w.nSeeds[w.first], w.dSeeds[w.first]
	prevNormals, prevOriginated := int64(0), int64(0)
	// Measured-feedback state (skew ratio + per-strategy calibration):
	// every rank keeps its own copy, updated from globally reduced values
	// only, so the copies stay bit-identical and decisions need no extra
	// collective.
	fb := newPolicyFeedback()
	if e.opts.Warm != nil {
		// Warm start: every rank seeds from the same snapshot, so the copies
		// stay bit-identical exactly as with the neutral defaults.
		fb.seed(*e.opts.Warm)
	}

	for iter := w.first; ; iter++ {
		// ---- Fault injection (chaos testing): an armed injector may crash
		// this rank at the iteration boundary — a real panic the containment
		// boundary must recover and turn into an all-rank abort.
		if in := e.opts.Inject; in != nil {
			in.Crash(rank, int(iter), faults.SiteIter)
		}
		// ---- Seed injection: a repair's schedules advance with the wave (a
		// cold run's are empty — its source is already in the frontier).
		e.injectSeeds(myGPUs, sc, iter)
		// ---- Exchange policy: every rank derives the identical strategy
		// decision for this iteration from globally known inputs, the way
		// direction optimization derives push vs pull (policy.go).
		strategy, predicted := pol.chooseS(inputNormals, inputDelegates, prevNormals, prevOriginated, fb, &sc.pol)
		ex := rx.get(strategy)
		// ---- Local computation (all GPUs of this rank).
		for _, gs := range myGPUs {
			gs.it = iterWork{}
		}
		w.kernels(e, myGPUs, iter)
		dir0 := myGPUs[0]

		// ---- Pre-exchange rendezvous, the first of the superstep's two. It
		// carries the delegate-mask reduction — local OR to "GPU0", then the
		// global OR across ranks, skipped entirely on iterations without
		// updates anywhere (the S' < S saving of §V-A) — and the all-pairs
		// exchange's destination-presence rows (exchange.go). Only a rank
		// whose GPUs proposed a delegate builds and contributes mask words;
		// whether any rank did is the reduce's own result, so a superstep
		// without delegate updates touches no mask at all.
		//
		// The commit takes every reduced bit at level iter+1 without
		// re-testing it, for a repair too: delegate levels are replicated and
		// change only here, so a bit a repair kernel set because the level it
		// saw was -1 or deeper than iter+1 still passes that test now, on
		// every GPU. (visited is read by the cold kernels only; a repair just
		// carries it.)
		hasBits := false
		for _, gs := range myGPUs {
			if !gs.newDirty {
				continue
			}
			if hasBits {
				rankMask.Or(gs.newMask)
			} else {
				rankMask.CopyFrom(gs.newMask)
				hasBits = true
			}
		}
		sc.present = ex.announce(myGPUs, sc.present[:0])
		maskExchanged := comm.AllreduceFused(rankMask.Words(), hasBits, nil, sc.present)
		var newDelegates int64
		if maskExchanged {
			newDelegates = rankMask.Count()
			for _, gs := range myGPUs {
				rankMask.ForEach(func(di int64) { gs.delegateLevel[di] = iter + 1 })
				gs.visitedForWrite().Or(rankMask)
				gs.dFront.CopyFrom(rankMask)
				gs.dFrontN = newDelegates
				if gs.newDirty {
					gs.newMask.Reset()
					gs.newDirty = false
				}
			}
		} else {
			for _, gs := range myGPUs {
				if gs.dFrontN > 0 {
					gs.dFront.Reset()
					gs.dFrontN = 0
				}
			}
		}

		// ---- Delegate-aware mask encoding: with a codec active, the
		// reduced delegate mask rides the same adaptive raw/delta/bitmap
		// selection as the normal payloads. Dense early-BFS masks stay in
		// their native bitmap form (the encoder can't beat d/8 bytes), but
		// the sparse late-iteration masks shrink to delta streams. Every
		// rank encodes the identical reduced mask, so the effective size —
		// what the timing model charges the global allreduce — is
		// deterministic across ranks.
		effMaskBytes := maskBytes
		var maskCodecRaw int64
		if maskExchanged && e.opts.Compression != wire.ModeOff && e.d-1 <= int64(^uint32(0)) {
			ids := sc.maskIDs[:0]
			rankMask.ForEach(func(di int64) { ids = append(ids, uint32(di)) })
			sc.maskIDs = ids
			if enc := wire.EncodedMaskBytes(ids, e.opts.Compression); enc < maskBytes {
				effMaskBytes = enc
				maskCodecRaw = 4 * int64(len(ids))
			}
		}

		// ---- Normal-vertex exchange (§V-B).
		var dupsRemoved int64
		if e.opts.Uniquify {
			for _, gs := range myGPUs {
				n := gs.bins.UniquifyAll(&sc.sortBuf)
				gs.it.dupsRemoved += n
				dupsRemoved += n
				// Uniquify is extra local work (sort + compact).
				if c := gs.bins.Count(); c > 0 {
					gs.it.normalStream += e.charge(gs, simgpu.KernelCost{
						Vertices: 2 * c, Strategy: simgpu.TWBDynamic,
					})
				}
			}
		}
		// Inter-rank exchange through this iteration's strategy (all-pairs
		// sends, or the butterfly's log(p) hops — see exchange.go).
		counts := ex.exchange(comm, myGPUs, iter, sc.present)
		// Intra-rank cross-GPU bins apply directly (NVLink, not NIC).
		var intraBytes int64
		for _, src := range myGPUs {
			for s := 0; s < pgpu; s++ {
				dstGPU := rank*pgpu + s
				if dstGPU == src.pg.GPU {
					continue
				}
				ids := src.bins.PerGPU[dstGPU]
				intraBytes += 4 * int64(len(ids))
				w.apply(e.gpus[dstGPU], ids, iter+1)
			}
		}
		// Remote arrivals apply in canonical ascending order so every
		// exchange strategy yields the identical output-frontier order (and
		// hence identical parents downstream). On the real GPU the apply is
		// an order-independent parallel scatter, so no extra time is
		// charged for the canonicalization.
		var applied int64
		for s, ids := range counts.arrivals {
			applied += int64(len(ids))
			frontier.SortIDs(ids, &sc.sortBuf)
			w.apply(myGPUs[s], ids, iter+1)
		}
		sentBytes, rawSentBytes := counts.sent, counts.sentRaw
		// Scatter cost of applying received ids on the destination GPUs.
		if applied+intraBytes/4 > 0 {
			myGPUs[0].it.normalStream += e.charge(myGPUs[0], simgpu.KernelCost{
				Vertices: applied + intraBytes/4, Strategy: simgpu.TWBDynamic,
			})
		}
		for _, gs := range myGPUs {
			gs.bins.Reset()
		}

		// ---- Timing assembly (model time, reduced across ranks).
		var comp float64
		for _, gs := range myGPUs {
			if c := streamCombine(gs.it.delegateStream, gs.it.normalStream); c > comp {
				comp = c
			}
		}
		// An injected stall charges this rank extra simulated seconds; the
		// max-reduce below propagates the skew exactly like a slow kernel.
		// Timing only — levels and parents stay bit-identical.
		if in := e.opts.Inject; in != nil {
			comp += in.Stall(rank, int(iter), faults.SiteIter)
		}
		// Timing uses amplified volumes (scale-model, see Options).
		aSent, aRecv, aIntra := e.ampBytes(sentBytes), e.ampBytes(counts.recv), e.ampBytes(intraBytes)
		// Local NVLink moves the mask in its native bitmap form; only the
		// inter-rank allreduce ships the codec-encoded size.
		aMask := e.ampBytes(maskBytes)
		aMaskWire := e.ampBytes(effMaskBytes)
		hier := e.hierExchange()
		var localComm float64
		if maskExchanged {
			localComm += e.opts.Net.LocalReduce(aMask, pgpu)
			localComm += e.opts.Net.LocalBroadcast(aMask, pgpu)
		}
		if hier {
			// Hierarchical exchange: the intra-rank aggregation and the
			// send/recv staging copies ride the exchange schedule
			// (remoteTime) as NVLink stages; only the intra-rank direct
			// applies stay here. The tier's exposed remainder — whatever
			// the hop pipeline could not hide — is folded back into
			// LocalComm after the reduce (rt.nvlinkExposed below), so
			// remote-normal stays a pure wire+codec quantity in both modes.
			localComm += e.opts.Net.Staging(aIntra)
		} else {
			if e.opts.LocalAll2All && aSent > 0 && pgpu > 1 {
				// Staging bins through peer GPUs: (pgpu-1)/pgpu of the
				// outgoing volume crosses NVLink first.
				localComm += e.opts.Net.LocalExchange(aSent*int64(pgpu-1)/int64(pgpu), pgpu)
			}
			localComm += e.opts.Net.Staging(aSent) + e.opts.Net.Staging(aRecv) + e.opts.Net.Staging(aIntra)
		}
		var remoteDelegate float64
		if maskExchanged {
			remoteDelegate = e.opts.Net.Allreduce(aMaskWire, prank, e.opts.BlockingReduce)
		}
		// Delegate-mask codec compute is charged exposed (the mask allreduce
		// serializes with its encode); the exchange's own codec work rides
		// the per-hop vectors below, so the pipelined butterfly can hide it
		// under hop transfers.
		maskCodecSecs := e.opts.GPU.CodecTime(e.ampBytes(maskCodecRaw))
		// The per-hop wire volumes and codec stages ride along the reduced
		// vector (amplified) so every rank derives the identical
		// remote-normal time from the global per-hop maxima — the hops are
		// synchronized pairwise exchanges, so the slowest rank paces each
		// transfer and each codec stage.
		nh := len(counts.hopBytes)
		vec := sc.vec[:0]
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
			aggBytes = e.ampBytes(aggregationBytesFor(&e.opts, e.shape, counts.sentRaw-counts.forwarded))
		}
		vec = append(vec, float64(aggBytes))
		// The last entry is this rank's originated fixed-width volume
		// (forwards excluded) — its maximum over the mean per-rank volume is
		// the strategy-independent partition-skew signal the policy feeds
		// back (relays would inflate a wire-byte measure on butterfly
		// iterations).
		vec = append(vec, float64(e.ampBytes(counts.sentRaw-counts.forwarded)))
		sc.vec = vec

		// ---- Post-exchange rendezvous, the second and last: the timing
		// vector's maxima (model time, as bit patterns) and the global sums —
		// work stats, the termination flag (kept alive through pending seed
		// levels) and the context observation (any rank seeing a dead context
		// aborts all ranks on the same iteration).
		var nextNormals, edges int64
		for _, gs := range myGPUs {
			nextNormals += int64(len(gs.outFront))
			edges += gs.it.edgesScanned
		}
		flag := int64(0)
		if nextNormals > 0 || newDelegates > 0 || iter < w.lastSeed {
			flag = 1
		}
		ctxDead := int64(0)
		if ctx.Err() != nil {
			ctxDead = 1
		}
		sums := append(sc.sums[:0], edges, sentBytes, nextNormals, dupsRemoved, flag,
			rawSentBytes, counts.scheme[wire.SchemeRaw], counts.scheme[wire.SchemeDelta], counts.scheme[wire.SchemeBitmap],
			counts.messages, counts.forwarded, counts.memoHits, counts.codecRaw+maskCodecRaw, ctxDead)
		sc.sums = sums
		sc.fbits = floatBits(vec, sc.fbits)
		comm.AllreduceFused(nil, false, sc.fbits, sums)
		bitsToFloats(sc.fbits, vec)

		redWire := grownInt64(sc.redWire, nh)
		sc.redWire = redWire
		redCodec := grownInt64(sc.redCodec, nh)
		sc.redCodec = redCodec
		redRecv := grownInt64(sc.redRecv, nh)
		sc.redRecv = redRecv
		for i := 0; i < nh; i++ {
			redWire[i] = int64(vec[4+i])
			redCodec[i] = int64(vec[4+nh+i])
			redRecv[i] = int64(vec[4+2*nh+i])
		}
		redPre := int64(vec[4+3*nh])
		redMaxOriginated := vec[6+3*nh]
		var maskWire int64
		if maskExchanged {
			maskWire = aMaskWire
		}
		rt := ex.remoteTime(remoteVolumes{
			hopBytes:    redWire,
			hopCodecRaw: redCodec,
			hopRecv:     redRecv,
			preCodecRaw: redPre,
			aggBytes:    int64(vec[5+3*nh]),
			maskWire:    maskWire,
			maskSecs:    vec[2],
		})
		remoteNormal := rt.seconds + vec[3]
		maxMsg := rt.maxMsg
		parts := metrics.Breakdown{
			Computation:    vec[0],
			LocalComm:      vec[1] + rt.nvlinkExposed,
			RemoteNormal:   remoteNormal,
			RemoteDelegate: rt.maskSecs,
		}
		elapsed := e.iterElapsed(parts)

		if rank == 0 {
			rec.iterations = append(rec.iterations, metrics.IterationStats{
				Iteration:         int(iter),
				FrontierNormals:   inputNormals,
				FrontierDelegates: inputDelegates,
				DirDD:             dir0.dirDD,
				DirDN:             dir0.dirDN,
				DirND:             dir0.dirND,
				Exchange:          strategy.String(),
				EdgesScanned:      sums[0],
				BytesNormal:       sums[1],
				BytesNormalRaw:    sums[5],
				BytesDelegate:     boolToBytes(maskExchanged, effMaskBytes),
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
			rec.wire.MemoHits += sums[11]
			rec.wire.CodecBytes += sums[12]
			rec.wire.CodecSeconds += rt.codecSeconds + vec[3]
			rec.exchange.HiddenCodecSeconds += rt.hiddenCodec
			rec.exchange.PipelineStalls += rt.stalls
			rec.exchange.NVLinkSeconds += rt.nvlinkSeconds
			rec.exchange.HiddenNVLinkSeconds += rt.hiddenNVLink
			rec.exchange.MaskFoldSavedSeconds += vec[2] - rt.maskSecs
			if maskExchanged && e.opts.Compression != wire.ModeOff {
				rec.wire.MaskRawBytes += maskBytes
				rec.wire.MaskWireBytes += effMaskBytes
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
			if maxMsg > rec.exchange.MaxMessageBytes {
				rec.exchange.MaxMessageBytes = maxMsg
			}
			if maskExchanged {
				rec.delegateComms++
			}
		}
		// The policy's volume feedback is the fixed-width originated bytes
		// (raw sent minus forwarded) — a strategy-independent measure, so a
		// butterfly iteration's relayed volume never inflates the next
		// prediction.
		prevNormals, prevOriginated = inputNormals, sums[5]-sums[10]
		inputNormals, inputDelegates = sums[2], newDelegates
		// Seeds injecting at the next level are part of its known input
		// frontier — fold their globally reduced counts into the policy's
		// volume signal.
		if iter < w.lastSeed {
			inputNormals += w.nSeeds[iter+1]
			inputDelegates += w.dSeeds[iter+1]
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

		// Rotate frontiers for the next iteration.
		for _, gs := range myGPUs {
			gs.inFront, gs.outFront = gs.outFront, gs.inFront[:0]
		}
		if sums[13] > 0 {
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

	if e.collects() && !cancelled {
		e.finishQuery(rank, comm, source)
	}
}

// coldKernels is the cold run's kernel set: the direction-optimizing kernels
// (kernels.go) on each of the rank's GPUs.
func (e *Session) coldKernels(myGPUs []*gpuState, iter int32) {
	for _, gs := range myGPUs {
		e.runKernels(gs, iter)
	}
}

// applyIDs marks received local ids visited at the given depth (duplicates
// and already-visited ids are ignored, as on the receiving GPU). Parents are
// resolved canonically after the traversal (parents.go).
func applyIDs(gs *gpuState, ids []uint32, depth int32) {
	for _, id := range ids {
		if gs.levels[id] == -1 {
			gs.discover(id, depth)
		}
	}
}

func boolToBytes(ok bool, b int64) int64 {
	if ok {
		return b
	}
	return 0
}
