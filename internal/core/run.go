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
// runEnv.drive, which takes the traversal's ranks through each superstep phase
// by phase (driver.go). Its superstep is, in order: exchange-policy decision →
// local kernels on each rank's GPUs (scheduled seeds first), the delegate
// proposal and the all-pairs posts (phaseLocal) → the pre-exchange rendezvous
// → delegate commit, then the frontier exchange, apply and timing assembly
// (phaseCommit, and a phaseRelay per butterfly hop) → the post-exchange
// rendezvous — the communication structure of §V. Everything a traversal may
// vary sits behind the lanes interface below; fault injection sites, the
// modelled clock's assembly, the statistics and the terminate/cancel protocol
// are this one loop's and nobody else's. A cold BFS and a repair share more
// than the loop: one lanes implementation (sourceLanes), one kernel set and
// one visit rule (kernels.go). A repair differs only in what it starts from
// (its seed schedule and preloaded levels), in running forward only, and in
// its finisher. A sweep has its own lanes.
//
// A superstep is two rendezvous on all-pairs and 2 + rounds() on the
// butterfly (a test counts them on the World, mpi.World.Meet). Each is a
// phase boundary, where the driver folds what the ranks contributed; no rank
// goroutine parks at any of them:
//
//   - pre-exchange: the delegate proposals' OR, folded over the ranks whose
//     GPUs proposed a delegate — "did anyone?" is the fold's own result, no
//     separate vote — and, on an all-pairs iteration, the posts: every rank
//     posts its messages in phaseLocal (mpi.Comm.Post) and reads its sources'
//     in phaseCommit, so the exchange itself waits for nothing (exchange.go).
//     An empty post tells a receiver its source had nothing for it.
//   - butterfly hops: a relay step sends hop k through the mailbox and the
//     next one, past the hop's rendezvous, receives and merges it, so no Recv
//     ever waits for a message.
//   - post-exchange: the timing vector's element-wise maxima (non-negative
//     doubles as bit patterns, max section) and the sums — work counters and
//     the terminate vote — and the one observation of the query's context.
//
// What follows from the folded values alike for every rank is derived once,
// by the driver: closeSuperstep prices the superstep through the executed
// strategy's remoteTime, appends the iteration record, feeds the query's one
// policyFeedback, and decides the next superstep's strategy, or that the loop
// stops or was cancelled, into loopState, which every rank reads in the next
// phase. GPU 0's kernel directions, which rank 0 alone holds, it reads off
// rank 0's scratch (loopState.lead). A repair's probe charge is its
// max-fold's closer the same way. No rank is special.
//
// The modelled clock sees none of this: every charge, wire byte and message
// count is computed as if each collective and each empty message were its
// own, which is what the paper's machine would do.
//
// The finishers that resolve and gather a tree (parents.go, repair_tree.go,
// sweep_tree.go) still run on one goroutine per rank (RunRanks), as do the
// dense analytics (internal/concomp, internal/pagerank), which are not lanes:
// they have no frontier, their delegate reduction is a min or a float sum the
// OR fold cannot carry, and they have no exchange policy; their one loop is
// internal/dense.

// lanes is one rank's side of a traversal: its GPUs' state and what a
// superstep does to it. An implementation may vary what a delegate proposal
// and a frontier payload are (a d-bit mask and ids for one source; a d×K
// matrix and (id, query-set) records for a sweep), which kernels run, the
// visit rule for arrivals, and how the finished traversal becomes a result
// (each implementation's finish, which its traversal runs after the loop).
// It may not vary the order of the steps, how they are charged, or when the
// traversal ends. The value lives in the rank's scratch, so a query allocates
// none.
type lanes interface {
	// kernels runs superstep iter's local computation on the rank's GPUs,
	// seeds scheduled at level iter injected first.
	kernels(iter int32)
	// proposal returns the words this rank offers the delegate reduction and
	// whether any bit of them is set; the pre-exchange fold overwrites them
	// with the global OR when some rank contributed.
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
	// that rendezvous and ex's relays, and applies everything that arrives —
	// over the wire or from a sibling GPU — at level iter+1.
	exchange(comm *mpi.Comm, ex exchanger, iter int32) *exchangeCounts
	// tally reads the finished superstep's work off the GPUs.
	tally() superstepWork
	// rotate makes the output frontier, which tally has read, the next
	// superstep's input.
	rotate()
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
// traversal's rank scratch: what the rank contributes to the driver's folds
// and what the closer reads of the superstep in flight.
type loopScratch struct {
	// offer and offered are the rank's delegate proposal; the pre-exchange
	// fold overwrites offer with the global OR when some rank proposed.
	offer   []uint64
	offered bool
	// mx and sums are the rank's post-exchange max and sum sections.
	mx, sums []int64
	// The rank's side of the superstep in flight: identical on every rank but
	// for work, whose GPU 0 kernel directions the closer reads off rank 0's
	// (loopState.lead).
	ex   exchanger
	dc   delegateCommit
	work superstepWork
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

// loopState is one query's state between phases, the same for every rank:
// the superstep in flight, the policy's one feedback, and what the driver's
// folds and the closer (closeSuperstep) derived from the ranks' sides.
type loopState struct {
	fb policyFeedback
	// iter and cur are the superstep in flight and its decision; the closer
	// replaces cur with the next superstep's, or sets stop. reduced is
	// whether the pre-exchange fold reduced any proposal; edges is what the
	// last closed superstep scanned.
	iter    int32
	cur     decision
	reduced bool
	stop    bool
	edges   int64
	// lead is rank 0's scratch; sync is the query's syncOverhead.
	lead *loopScratch
	sync float64
}

// rankLoop is one rank's side of the loop as the driver takes it: its lanes,
// its loop scratch and its endpoint.
type rankLoop struct {
	l    lanes
	ls   *loopScratch
	comm *mpi.Comm
}

// bspLoop is the superstep loop's stepper (driver.go): the ranks' sides, the
// traversal's schedule, the relay step in flight and the folds' buffers,
// which persist across the queries of a pooled session. The proposals' OR is
// folded by each rank as its phaseLocal share ends, under orMu, so a
// fanned-out phase folds while other ranks still run their kernels.
type bspLoop struct {
	e     *runEnv
	ranks []rankLoop
	sch   schedule
	relay int
	orMu  sync.Mutex
	or    []uint64
	mx    []int64
	sums  []int64
}

// wave is what a single-source traversal may vary about its lanes: the part of
// its frontier known beforehand and — a repair — its input. A cold run and a
// repair run the same kernels under the same visit rule (kernels.go); a
// repair's input decides only what the lanes list for its finisher (the
// vertices the wave re-levels, rotate and commit), finishRepairs, which
// patches the prior tree where that is less work; a cold run's is
// finishQuery, which resolves the tree from nothing (runWave).
type wave struct {
	schedule
	repair *repairIn
}

// The cold run's seed schedule is its source alone, at level 0 (read-only).
var oneSeed, noSeed = []int64{1}, []int64{0}

// recorder collects a query's statistics (runEnv.rec) in the fields of the
// result they become; only the closers of the query's rendezvous write to it.
type recorder struct {
	metrics.RunResult
	// cancelled is set by a superstep's closer when the query aborted on its
	// context: the loop ends with that superstep, and no finisher runs.
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
	return e.traverse(ctx, source, newTreeOut(&e.opts, e.sg.N), func() error {
		e.bindWave(source, w)
		return e.runWave(ctx, w.schedule)
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

// traverse runs one single-source traversal, body, on the freshly reset
// session's armed World, to fill out, and assembles the result. A fault
// poisons the session; a cancelled query returns the context's error.
func (e *Session) traverse(ctx context.Context, source int64, out treeOut, body func() error) (*metrics.RunResult, error) {
	e.out = out
	e.begin()
	world := e.acquireWorld()
	armWorld(world, e.opts.Inject, tagSite)
	e.drv.reset(world)
	if err := body(); err != nil {
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

// drive runs the superstep loop over ranks on the driver's World, each rank
// entered with its lanes' frontier and any seeds sch schedules already in
// place, until the traversal stops, is cancelled, or a rank faults, whose
// error it returns. The paper's "CPU thread that controls GPU0" performs the
// global phases (§V-A); here the driver does, between the ranks' phases. A
// phase fans out over worker goroutines when the superstep's known size — its
// input frontier and what the previous superstep scanned — reaches fanWork.
func (e *runEnv) drive(ctx context.Context, ranks []rankLoop, sch schedule) error {
	t, d, lp := &e.bsp, &e.drv, &e.loop
	defer d.stop()
	t.e, t.ranks, t.sch = e, ranks, sch
	lead := &ranks[0]
	lp.lead, lp.iter = lead.ls, sch.first
	lp.cur = decision{inputNormals: sch.nSeeds[sch.first], inputDelegates: sch.dSeeds[sch.first]}
	lp.cur.strategy, lp.cur.predicted = e.pol.choose(lp.cur.inputNormals, lp.cur.inputDelegates, 0, 0, lp.fb, lead.l.exchanger)
	for {
		d.fan = lp.cur.inputNormals+fanDelegate*lp.cur.inputDelegates+lp.edges >= fanWork
		lp.reduced = false
		if err := d.run(t, phaseLocal); err != nil {
			return err
		}
		// ---- Pre-exchange rendezvous: the delegate reduction — local OR to
		// "GPU0", then the global OR across ranks, skipped entirely on
		// iterations without updates anywhere (the S' < S saving of §V-A) —
		// and the all-pairs messages, posted before it (exchange.go).
		d.world.Meet()
		if err := d.run(t, phaseCommit); err != nil {
			return err
		}
		// ---- The butterfly's hops, one rendezvous each.
		for t.relay = 1; t.relay <= lead.ls.ex.relays(); t.relay++ {
			d.world.Meet()
			if err := d.run(t, phaseRelay); err != nil {
				return err
			}
		}
		// ---- Post-exchange rendezvous: the timing vector's maxima (model
		// time) and the global sums — work stats and the termination flag
		// (kept alive through pending seed levels) — and the context
		// observation. Its closer prices, records and decides.
		d.world.Meet()
		t.close(ctx)
		if lp.stop {
			return nil
		}
		lp.iter++
	}
}

// step is rank's share of one superstep phase.
func (t *bspLoop) step(ph phase, rank int) {
	e, lp := t.e, &t.e.loop
	r := &t.ranks[rank]
	l, ls := r.l, r.ls
	switch ph {
	case phaseLocal:
		// Fault injection (chaos testing): an armed injector may crash this
		// rank at the iteration boundary — a real panic the driver's
		// containment must recover and turn into an abort.
		if in := e.opts.Inject; in != nil {
			in.Crash(rank, int(lp.iter), faults.SiteIter)
		}
		// Exchange policy: the strategy decided for this iteration from
		// globally known inputs, the way direction optimization derives push
		// vs pull (policy.go).
		ls.ex = l.exchanger(lp.cur.strategy)
		l.kernels(lp.iter)
		if ls.offer, ls.offered = l.proposal(); ls.offered {
			t.fold(ls.offer)
		}
		l.post(r.comm, ls.ex, lp.iter)
	case phaseCommit:
		if lp.reduced {
			copy(ls.offer, t.or)
		}
		ls.dc = l.commit(lp.reduced, lp.iter)
		if ls.ex.relays() > 0 {
			ls.ex.relay(r.comm, lp.iter, 0)
		} else {
			t.exchange(rank)
		}
	case phaseRelay:
		if t.relay < ls.ex.relays() {
			ls.ex.relay(r.comm, lp.iter, t.relay)
		} else {
			t.exchange(rank)
		}
	}
}

// exchange completes rank's frontier exchange (§V-B) and apply, tallies the
// superstep, assembles its side of the timing vector and the sums, and makes
// the output frontier the next superstep's input.
func (t *bspLoop) exchange(rank int) {
	e, iter := t.e, t.e.loop.iter
	r := &t.ranks[rank]
	l, ls := r.l, r.ls
	pgpu := e.shape.GPUsPerRank
	prank := e.shape.Ranks()
	counts := l.exchange(r.comm, ls.ex, iter)
	ls.work = l.tally()
	work, dc := &ls.work, &ls.dc

	// ---- Timing assembly (model time, reduced across ranks).
	comp := work.comp
	// An injected stall charges this rank extra simulated seconds; the
	// max-fold propagates the skew exactly like a slow kernel. Timing only —
	// levels and parents stay bit-identical.
	if in := e.opts.Inject; in != nil {
		comp += in.Stall(rank, int(iter), faults.SiteIter)
	}
	// Timing uses amplified volumes (scale-model, see Options).
	aSent, aRecv, aIntra := e.ampBytes(counts.sent), e.ampBytes(counts.recv), e.ampBytes(counts.intra)
	// Local NVLink moves the proposal in its native form; only the
	// inter-rank allreduce ships the codec-encoded size.
	aMask := e.ampBytes(dc.native)
	hier := e.hierExchange()
	reduced := e.loop.reduced
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
		// folded back into LocalComm by the closer (rt.nvlinkExposed), so
		// remote-normal stays a pure wire+codec quantity.
		localComm += e.opts.Net.Staging(aIntra)
	} else {
		// One GPU per rank: no sibling to aggregate with or apply to, and
		// the staging copies are charged serially.
		localComm += e.opts.Net.Staging(aSent) + e.opts.Net.Staging(aRecv)
	}
	var remoteDelegate float64
	if reduced {
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

	flag := int64(0)
	if work.nextNormals > 0 || dc.visits > 0 || iter < t.sch.lastSeed {
		flag = 1
	}
	ls.sums = append(ls.sums[:0], work.edges, counts.sent, work.nextNormals, counts.dups, flag,
		counts.sentRaw, counts.scheme[wire.SchemeRaw], counts.scheme[wire.SchemeDelta], counts.scheme[wire.SchemeBitmap],
		counts.messages, counts.forwarded, counts.codecRaw+dc.codecRaw)
	l.rotate()
}

// fold is the pre-exchange rendezvous' OR section: it ORs one rank's
// proposal into the superstep's, the first copied, and notes that there is
// one. Every rank copies the result over its offer in phaseCommit.
func (t *bspLoop) fold(offer []uint64) {
	lp := &t.e.loop
	t.orMu.Lock()
	defer t.orMu.Unlock()
	if !lp.reduced {
		t.or, lp.reduced = append(t.or[:0], offer...), true
		return
	}
	for j, w := range offer {
		t.or[j] |= w
	}
}

// close is the post-exchange rendezvous: the element-wise maxima and sums of
// the ranks' sections, and the context observed once, handed to the closer.
func (t *bspLoop) close(ctx context.Context) {
	first := t.ranks[0].ls
	mx, sums := append(t.mx[:0], first.mx...), append(t.sums[:0], first.sums...)
	for i := 1; i < len(t.ranks); i++ {
		ls := t.ranks[i].ls
		for j, v := range ls.mx {
			mx[j] = max(mx[j], v)
		}
		for j, v := range ls.sums {
			sums[j] += v
		}
	}
	t.mx, t.sums = mx, sums
	t.e.closeSuperstep(t.ranks[0].l, &t.sch, mx, sums, ctx.Err() != nil)
}

// closeSuperstep is the closer of a superstep's post-exchange rendezvous, run
// by the driver on the folded timing maxima mx and sums, with rank 0's lanes
// and scratch as every rank's (loopState.lead) and cancelled the context's
// observation. It prices the superstep, records it, feeds the policy back and
// decides the next superstep, or that there is none, for every rank.
func (e *runEnv) closeSuperstep(l lanes, sch *schedule, mx, sums []int64, cancelled bool) {
	lp, rec := &e.loop, &e.rec
	ls := lp.lead
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

	d, dir := &lp.cur, &ls.work
	rec.PerIteration = append(rec.PerIteration, metrics.IterationStats{
		Iteration:         int(lp.iter),
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
	if lp.reduced && e.opts.Compression != wire.ModeOff {
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
	if lp.reduced {
		rec.DelegateComms++
	}
	lp.edges = sums[0]

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

	rec.cancelled = cancelled
	lp.stop = cancelled || sums[4] == 0
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
	if lp.iter < sch.lastSeed {
		next.inputNormals += sch.nSeeds[lp.iter+1]
		next.inputDelegates += sch.dSeeds[lp.iter+1]
	}
	next.strategy, next.predicted = e.pol.choose(next.inputNormals, next.inputDelegates, next.prevNormals, next.prevOriginated, *fb, l.exchanger)
	lp.cur = next
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

// bindWave sets every rank's lanes up for one single-source traversal of w
// from source, whose frontier and seeds are already in place.
func (e *Session) bindWave(source int64, w wave) {
	if len(e.loops) != len(e.scratch) {
		e.loops = make([]rankLoop, len(e.scratch))
	}
	for rank, sc := range e.scratch {
		clear(sc.dt.rec) // the kernels fold into it from empty
		e.exchangers(rank)
		sc.lanes = sourceLanes{e: e, rank: rank, gpus: e.rankGPUs(rank), sc: sc, source: source, w: w}
		e.loops[rank] = rankLoop{l: &sc.lanes, ls: &sc.loopScratch, comm: e.world.Rank(rank)}
	}
}

// runWave runs a bound single-source traversal's superstep loop from sch and
// then, unless it was cancelled, its finisher, when the query collects a
// result, on one goroutine per rank.
func (e *Session) runWave(ctx context.Context, sch schedule) error {
	if err := e.drive(ctx, e.loops, sch); err != nil {
		return err
	}
	if e.rec.cancelled || !e.collects() {
		return nil
	}
	return launchRanks(e.world, func(rank int, comm *mpi.Comm) { e.scratch[rank].lanes.finish(comm) })
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

// finish resolves and gathers the rank's share of a cold run's result from
// nothing (finishQuery). A repair's wave ends in finishRepairs instead, which
// patches the prior tree where that is less work.
func (l *sourceLanes) finish(comm *mpi.Comm) { l.e.finishQuery(l.rank, comm, l.source) }

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
