package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// webPlan builds the long-tail web graph on shape the way the facade does
// (auto-tuned threshold, at most 4n/p delegates).
func webPlan(t testing.TB, scale int, shape ClusterShape, opts Options) (*graph.EdgeList, *Plan) {
	t.Helper()
	el := gen.WebGraph(gen.DefaultWebParams(scale))
	th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
	return el, buildPlan(t, el, shape, th, opts)
}

// loopRendezvous is what a traversal's supersteps cost in rendezvous on prank
// ranks, read off its iteration records: two each, the pre- and the
// post-exchange one, and on the butterfly one more per hop (rounds), at which
// a hop's messages change hands.
func loopRendezvous(recs []metrics.IterationStats, prank int) uint64 {
	q, rem, nhops := hypercubeGeometry(prank)
	hops := uint64((&butterflyExchange{q: q, rem: rem, nhops: nhops}).rounds())
	var n uint64
	for _, it := range recs {
		n += 2
		if it.Exchange == ExchangeButterfly.String() {
			n += hops
		}
	}
	return n
}

// A superstep is two rendezvous whatever it carries on all-pairs, and 2 +
// rounds() on the butterfly: counted on the session's communicator, not read
// off the code. Levels are not gathered, so the loop's rendezvous are the
// query's only ones.
func TestSuperstepIsTwoRendezvous(t *testing.T) {
	shape := ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}
	if loopRendezvous([]metrics.IterationStats{{Exchange: "butterfly"}}, shape.Ranks()) != 2+4 {
		t.Fatal("a butterfly superstep on 6 ranks is not 2 + 4 rendezvous (two cleanup hops around a 4-rank hypercube's two)")
	}
	for _, x := range []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid} {
		for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
			opts := DefaultOptions()
			opts.CollectLevels = false
			opts.Exchange = x
			opts.Compression = mode
			_, p := webPlan(t, 9, shape, opts)
			s := p.acquire(p.base)
			for _, src := range delegateAndNormalSources(p.sg.Sep) {
				var before uint64
				if s.world != nil {
					before = s.world.Rendezvous()
				}
				res, err := s.run(context.Background(), src)
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations < 20 {
					t.Fatalf("%s: only %d supersteps — not a long-tail query", x, res.Iterations)
				}
				want := uint64(2 * res.Iterations)
				if x != ExchangeAllPairs {
					want = loopRendezvous(res.PerIteration, shape.Ranks())
				}
				if x == ExchangeButterfly && want != uint64(6*res.Iterations) {
					t.Fatalf("butterfly/%s source %d: %d of %d supersteps on the butterfly", mode, src, res.Exchange.ButterflyIterations, res.Iterations)
				}
				if got := s.world.Rendezvous() - before; got != want {
					t.Errorf("%s/%s source %d: %d rendezvous over %d supersteps, want %d",
						x, mode, src, got, res.Iterations, want)
				}
			}
			p.release(s)
		}
	}

	// A sweep is a payload of the same loop, so its superstep is the same two
	// rendezvous (four while the sweep had a loop of its own), counted on the
	// sweep's own communicator.
	opts := DefaultOptions()
	opts.CollectLevels = false
	el, p := webPlan(t, 9, ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, opts)
	for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
		opts.Compression = mode
		e := p.newSweepSession(opts, pickSources(el.OutDegrees(), 8, 3))
		res, err := e.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		supersteps := res[0].Exchange.AllPairsIterations
		if supersteps < 20 {
			t.Fatalf("sweep: only %d supersteps — not a long-tail traversal", supersteps)
		}
		if got, want := e.world.Rendezvous(), uint64(2*supersteps); got != want {
			t.Errorf("sweep/%s: %d rendezvous over %d supersteps, want %d", mode, got, supersteps, want)
		}
	}

	// A sweep that collects its trees adds its finisher's: the delegate
	// candidates' reduce-scatter, two rendezvous on any rank count (one
	// min-allreduce per rank while they were reduced stripe by stripe), which
	// is also the gather's barrier.
	popts := DefaultOptions()
	popts.CollectParents = true
	for _, shape := range []ClusterShape{{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, {Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2}} {
		el, p := webPlan(t, 9, shape, popts)
		if p.d == 0 {
			t.Fatalf("sweep %v: no delegates to reduce", shape)
		}
		e := p.newSweepSession(popts, pickSources(el.OutDegrees(), 8, 3))
		res, err := e.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		supersteps := uint64(res[0].Exchange.AllPairsIterations)
		if got, want := e.world.Rendezvous()-2*supersteps, uint64(2); got != want {
			t.Errorf("sweep with parents on %d ranks: the finisher took %d rendezvous, want %d", shape.Ranks(), got, want)
		}

		// A Run's finisher is the same reduce-scatter when it collects the
		// tree (a min-allreduce and the gather's barrier while every rank
		// received every delegate's candidates), and the gather's barrier
		// alone when it collects levels only.
		for _, parents := range []bool{true, false} {
			o := popts
			o.CollectParents = parents
			s := p.acquire(o)
			for _, src := range delegateAndNormalSources(p.sg.Sep) {
				var before uint64
				if s.world != nil {
					before = s.world.Rendezvous()
				}
				res, err := s.run(context.Background(), src)
				if err != nil {
					t.Fatal(err)
				}
				want := uint64(1)
				if parents {
					want = 2
				}
				if got := s.world.Rendezvous() - before - 2*uint64(res.Iterations); got != want {
					t.Errorf("run (parents %v) on %d ranks, source %d: the finisher took %d rendezvous, want %d", parents, shape.Ranks(), src, got, want)
				}
			}
			p.release(s)
		}
	}

	// A repair runs the same loop behind a prologue of three rendezvous (four
	// while its probe had a round of its own): the one the probe round's posts
	// ride, one max-fold of the seed-level bounds and the probe's charge,
	// and one sum of the per-level seed counts. Levels and parents are not
	// collected, so no finisher adds any.
	ctx := context.Background()
	rel := rmat.Generate(rmat.DefaultParams(10))
	source := repairSource(rel)
	for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
		for _, frac := range []float64{0.0005, 0.002, 0.02} {
			ropts := repairOptions()
			ropts.Compression = mode
			b := delta.Synthesize(rel, frac, delta.KindMixed, 42)
			prior, p2 := nextEpoch(t, rel, shape, 32, ropts, source, b)
			invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
			ropts.CollectLevels, ropts.CollectParents, ropts.DirectionOptimized = false, false, false
			s := p2.acquire(ropts)
			var before uint64
			if s.world != nil {
				before = s.world.Rendezvous()
			}
			res, err := s.repair(ctx, &repairIn{source: source, levels: prior.Levels, invalid: invalid, seeds: seeds})
			if err != nil {
				t.Fatal(err)
			}
			if res.Iterations == 0 {
				t.Fatalf("repair/%s at %g: no wave ran", mode, frac)
			}
			if got, want := s.world.Rendezvous()-before, uint64(3+2*res.Iterations); got != want {
				t.Errorf("repair/%s at %g: %d rendezvous over %d supersteps, want %d", mode, frac, got, res.Iterations, want)
			}
			p2.release(s)
		}
	}

	// A repair that collects the tree adds three: the sum of the rows its
	// patch would read, and the delegate candidates' reduce-scatter — the
	// patch's (one sum while they rode its first pair round) or, forced, the
	// full resolution's.
	b := delta.Synthesize(rel, 0.002, delta.KindMixed, 42)
	prior, p2 := nextEpoch(t, rel, shape, 32, repairOptions(), source, b)
	invalid := delta.Invalidated(prior.Levels, prior.Parents, b)
	ropts := p2.base
	ropts.DirectionOptimized = false // as Plan.repair runs it
	var pairs [2]int64
	for i, full := range []bool{false, true} {
		s := p2.acquire(ropts)
		var before uint64
		if s.world != nil {
			before = s.world.Rendezvous()
		}
		in := &repairIn{source: source, levels: prior.Levels, parents: prior.Parents, invalid: invalid, full: full}
		in.addInserts(b.Inserts)
		res, err := s.repair(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.world.Rendezvous()-before, uint64(3+2*res.Iterations+3); got != want {
			t.Errorf("repair with parents (full %v): %d rendezvous over %d supersteps, want %d", full, got, res.Iterations, want)
		}
		pairs[i] = res.ParentPairs
		p2.release(s)
	}
	if pairs[0] >= pairs[1] {
		t.Errorf("repair with parents: the patch sent %d pairs, the full resolution %d: nothing was patched", pairs[0], pairs[1])
	}
}

// hooked runs a traversal, body, on world with hook installed as its send
// hook in place of the fault injector's (which traverse arms). The hook sees
// every payload the communicator really delivers.
func hooked(world *mpi.World, hook mpi.SendHook, body func() error) {
	world.SetSendHook(hook)
	defer world.SetSendHook(nil)
	if err := body(); err != nil {
		panic(err)
	}
}

// runCounted is Session.traverse for a cold run with a send hook installed.
func runCounted(t *testing.T, s *Session, source int64, hook mpi.SendHook) *metrics.RunResult {
	t.Helper()
	w := s.coldWave(source)
	s.out = newTreeOut(&s.opts, s.sg.N)
	s.begin()
	s.drv.reset(s.acquireWorld())
	hooked(s.world, hook, func() error {
		s.bindWave(source, w)
		return s.runWave(context.Background(), w.schedule)
	})
	return s.result(source)
}

// runSweepCounted is sweepSession.run with a send hook installed, as
// runCounted is for a cold run.
func runSweepCounted(e *sweepSession, hook mpi.SendHook) []*metrics.RunResult {
	sch := e.seed()
	hooked(e.world, hook, func() error { return e.traverse(context.Background(), sch) })
	return e.results()
}

// repairCounted is Session.repair for a repair that collects no tree from its
// prior, with a send hook installed.
func repairCounted(s *Session, in *repairIn, hook mpi.SendHook) *metrics.RunResult {
	s.resetTraversal()
	s.out = newTreeOut(&s.opts, s.sg.N)
	s.begin()
	s.drv.reset(s.acquireWorld())
	hooked(s.world, hook, func() error { return s.repairWave(context.Background(), in) })
	return s.result(in.source)
}

// Empty posts on the paper's all-pairs exchange: a message without ids is
// accounted but posted empty, never delivered, and the accounting cannot tell
// — it equals, field for field, a run that posts every message. A sweep's
// records ride the same exchange under the same rule.
func TestAbsentMessagesAreAccountedNotDelivered(t *testing.T) {
	shape := ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}
	for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
		opts := DefaultOptions()
		opts.CollectLevels = false
		opts.Compression = mode
		el, p := webPlan(t, 10, shape, opts)
		// What a message without ids looks like on the wire.
		empty, _ := (*wire.Selector)(nil).AppendRankSection(nil, wire.Section{Slots: make([][]uint32, shape.GPUsPerRank)}, 0, mode)
		var delivered, emptyDelivered atomic.Int64
		hook := func(_, _, _ int, data []byte) []byte {
			delivered.Add(1)
			if len(data) == len(empty) {
				emptyDelivered.Add(1)
			}
			return data
		}
		src := delegateAndNormalSources(p.sg.Sep)[0]

		s := p.acquire(p.base)
		got := runCounted(t, s, src, hook)
		prank := int64(shape.Ranks())
		if want := int64(got.Iterations) * prank * (prank - 1); got.Exchange.Messages != want {
			t.Fatalf("%s: Exchange.Messages = %d, want iterations·p·(p−1) = %d", mode, got.Exchange.Messages, want)
		}
		if d := delivered.Load(); d == 0 || d >= got.Exchange.Messages {
			t.Fatalf("%s: delivered %d of %d modelled messages — nothing was elided", mode, d, got.Exchange.Messages)
		}
		if e := emptyDelivered.Load(); e != 0 {
			t.Fatalf("%s: %d delivered messages carried no ids", mode, e)
		}

		// The same query posting every message, empty ones included.
		delivered.Store(0)
		for rank := range s.scratch {
			s.exchangers(rank).get(ExchangeAllPairs).(*allPairsExchange).sendAll = true
		}
		want := runCounted(t, s, src, hook)
		for _, sc := range s.scratch {
			sc.rx.ap.sendAll = false
		}
		p.release(s)
		if d := delivered.Load(); d != want.Exchange.Messages {
			t.Fatalf("%s: send-all run delivered %d, modelled %d", mode, d, want.Exchange.Messages)
		}
		if got.Wire != want.Wire || got.Exchange != want.Exchange || got.SimSeconds != want.SimSeconds {
			t.Fatalf("%s: accounting depends on delivery\n got %+v %+v\nwant %+v %+v",
				mode, got.Wire, got.Exchange, want.Wire, want.Exchange)
		}
		if !reflect.DeepEqual(got.PerIteration, want.PerIteration) {
			t.Fatalf("%s: per-iteration stats depend on delivery", mode)
		}

		// An 8-lane sweep, once posting empty messages empty and once
		// delivering everything.
		sources := pickSources(el.OutDegrees(), 8, 3)
		empty, _ = (*wire.Selector)(nil).AppendRankSection(nil, slotRow(0, shape.GPUsPerRank, 1), 1, mode)
		sweep := func(sendAll bool) []*metrics.RunResult {
			e := p.newSweepSession(p.base, sources)
			for _, sc := range e.scratch {
				sc.rx.get(ExchangeAllPairs).(*allPairsExchange).sendAll = sendAll
			}
			delivered.Store(0)
			emptyDelivered.Store(0)
			return runSweepCounted(e, hook)
		}
		gotSweep := sweep(false)
		gated, emptyGated := delivered.Load(), emptyDelivered.Load()
		wantSweep := sweep(true)
		modelled := wantSweep[0].Exchange.AllPairsIterations * prank * (prank - 1)
		if gated == 0 || gated >= modelled || delivered.Load() != modelled {
			t.Fatalf("%s sweep: delivered %d gated and %d sending all of %d modelled messages", mode, gated, delivered.Load(), modelled)
		}
		if emptyGated != 0 || emptyDelivered.Load() == 0 {
			t.Fatalf("%s sweep: %d gated and %d sending all of the delivered messages carried no records", mode, emptyGated, emptyDelivered.Load())
		}
		for q := range wantSweep {
			g, w := gotSweep[q], wantSweep[q]
			if g.Wire != w.Wire || g.Exchange != w.Exchange || g.SimSeconds != w.SimSeconds || g.Parts != w.Parts || g.EdgesScanned != w.EdgesScanned {
				t.Fatalf("%s sweep lane %d: accounting depends on delivery\n got %+v %+v\nwant %+v %+v",
					mode, q, g.Wire, g.Exchange, w.Wire, w.Exchange)
			}
		}
	}
}

// Every all-pairs round rides a rendezvous as posts: a levels-only Run, an
// 8-lane sweep and a repair's probe round send nothing through a mailbox
// (mpi.Comm.Isend), and every payload the send hook sees arrived through a
// post — all of them, in every compression mode.
func TestAllPairsRoundsTouchNoMailbox(t *testing.T) {
	shape := ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}
	var hooked, probes atomic.Int64
	hook := func(_, _, tag int, data []byte) []byte {
		hooked.Add(1)
		if tag == probeTag {
			probes.Add(1)
		}
		return data
	}
	check := func(label string, world *mpi.World) {
		t.Helper()
		if got := world.MailboxSends(); got != 0 {
			t.Errorf("%s: %d mailbox sends", label, got)
		}
		if h, m := hooked.Load(), world.MessagesSent(); h == 0 || h != m {
			t.Errorf("%s: the hook saw %d payloads of %d messages sent", label, h, m)
		}
		hooked.Store(0)
	}
	for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
		opts := DefaultOptions()
		opts.Compression = mode
		el, p := webPlan(t, 9, shape, opts)
		s := p.acquire(p.base)
		src := delegateAndNormalSources(p.sg.Sep)[0]
		if res := runCounted(t, s, src, hook); res.Levels == nil || res.Parents != nil {
			t.Fatalf("%s: not a levels-only run", mode)
		}
		check(mode.String()+" run", s.world)
		p.release(s)

		sweepOpts := opts
		sweepOpts.CollectLevels = false
		e := p.newSweepSession(sweepOpts, pickSources(el.OutDegrees(), 8, 3))
		runSweepCounted(e, hook)
		check(mode.String()+" sweep", e.world)

		rel := rmat.Generate(rmat.DefaultParams(10))
		source := repairSource(rel)
		ropts := repairOptions()
		ropts.Compression = mode
		b := delta.Synthesize(rel, 0.02, delta.KindMixed, 42)
		prior, p2 := nextEpoch(t, rel, shape, 32, ropts, source, b)
		invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
		ropts.CollectParents, ropts.DirectionOptimized = false, false
		s = p2.acquire(ropts)
		probes.Store(0)
		repairCounted(s, &repairIn{source: source, levels: prior.Levels, invalid: invalid, seeds: seeds}, hook)
		if probes.Load() == 0 {
			t.Fatalf("%s repair: the probe round delivered nothing", mode)
		}
		check(mode.String()+" repair", s.world)
		p2.release(s)
	}
}

// Every superstep is closed once: the closer of its post-exchange rendezvous
// runs once and appends exactly one iteration record, so a traversal's
// records, in superstep order, number its supersteps as the communicator
// counts them (two rendezvous each, 2 + rounds() on the butterfly), and the
// query's modelled seconds are their elapsed times summed once. Held for a cold run, a repair wave and a
// 64-lane sweep under every exchange, on six ranks and on one.
func TestSuperstepClosesOnce(t *testing.T) {
	ctx := context.Background()
	for _, shape := range []ClusterShape{{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, {Nodes: 1, RanksPerNode: 1, GPUsPerRank: 2}} {
		for _, x := range []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid} {
			label := fmt.Sprintf("%d ranks/%s", shape.Ranks(), x)
			closed := func(what string, recs []metrics.IterationStats, met uint64) {
				t.Helper()
				if len(recs) < 2 || loopRendezvous(recs, shape.Ranks()) != met {
					t.Errorf("%s %s: %d iteration records over %d loop rendezvous", label, what, len(recs), met)
				}
				for i, it := range recs {
					if it.Iteration != recs[0].Iteration+i {
						t.Fatalf("%s %s: record %d is superstep %d, after superstep %d", label, what, i, it.Iteration, recs[0].Iteration)
					}
				}
			}
			opts := DefaultOptions()
			opts.CollectLevels = false
			opts.Exchange = x
			el, p := webPlan(t, 9, shape, opts)
			s := p.acquire(p.base)
			for _, src := range delegateAndNormalSources(p.sg.Sep) {
				var before uint64
				if s.world != nil {
					before = s.world.Rendezvous()
				}
				res, err := s.run(ctx, src)
				if err != nil {
					t.Fatal(err)
				}
				closed("run", res.PerIteration, s.world.Rendezvous()-before)
				var sum float64
				for _, it := range res.PerIteration {
					sum += it.Elapsed
				}
				if res.Iterations != len(res.PerIteration) || sum != res.SimSeconds {
					t.Errorf("%s run: %d iterations, %d records, Σ elapsed %g of %g s", label, res.Iterations, len(res.PerIteration), sum, res.SimSeconds)
				}
			}
			p.release(s)

			e := p.newSweepSession(opts, pickSources(el.OutDegrees(), 64, 3))
			lanes, err := e.run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			closed("sweep", e.rec.PerIteration, e.world.Rendezvous())
			deepest := 0
			for _, r := range lanes {
				deepest = max(deepest, r.Iterations)
			}
			if xs := lanes[0].Exchange; deepest != len(e.rec.PerIteration) || xs.AllPairsIterations+xs.ButterflyIterations != int64(deepest) {
				t.Errorf("%s sweep: deepest lane %d supersteps, %d records, %d + %d strategy counts", label, deepest,
					len(e.rec.PerIteration), xs.AllPairsIterations, xs.ButterflyIterations)
			}

			// A repair's prologue is three rendezvous, its finisher none
			// when it collects nothing, and its wave's supersteps start
			// where a level can change.
			rel := rmat.Generate(rmat.DefaultParams(10))
			source := repairSource(rel)
			ropts := repairOptions()
			ropts.Exchange = x
			b := delta.Synthesize(rel, 0.02, delta.KindMixed, 42)
			prior, p2 := nextEpoch(t, rel, shape, 32, ropts, source, b)
			invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
			ropts.CollectLevels, ropts.CollectParents, ropts.DirectionOptimized = false, false, false
			s = p2.acquire(ropts)
			var before uint64
			if s.world != nil {
				before = s.world.Rendezvous()
			}
			res := repairCounted(s, &repairIn{source: source, levels: prior.Levels, invalid: invalid, seeds: seeds}, nil)
			closed("repair", res.PerIteration, s.world.Rendezvous()-before-3)
			if res.Iterations != len(res.PerIteration) {
				t.Errorf("%s repair: %d iterations, %d records", label, res.Iterations, len(res.PerIteration))
			}
			p2.release(s)
		}
	}
}

// BenchmarkTailSuperstep is the host cost of a superstep in the regime where
// that is the whole bill: a web graph's long chains give a query hundreds of
// supersteps that each scan a handful of edges (§VI-D), so ns/superstep here
// is the loop's fixed cost — rendezvous, exchange framing, kernel set-up —
// not traversal work. Levels are not gathered; the query is the loop alone.
func BenchmarkTailSuperstep(b *testing.B) {
	opts := DefaultOptions()
	opts.CollectLevels = false
	_, p := webPlan(b, 12, ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}, opts)
	ctx := context.Background()
	warm, err := p.Run(ctx, 0, Overrides{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ResetTimer()
	var supersteps int
	for i := 0; i < b.N; i++ {
		res, err := p.Run(ctx, 0, Overrides{})
		if err != nil {
			b.Fatal(err)
		}
		supersteps += res.Iterations
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(supersteps), "ns/superstep")
	b.ReportMetric(float64(warm.Iterations), "supersteps/query")
	// A query's allocations are its result's, none per superstep: the
	// driver, the closer and the exchange's accounting allocate nothing. Held, as allocs/op
	// reads, over enough queries that a pooled session the GC dropped (a
	// fresh one allocates about 40 times more) cannot decide it.
	runtime.ReadMemStats(&ms)
	bound := uint64(maxTailAllocs + 2*(graph.BuildWorkers()-1))
	if per := (ms.Mallocs - mallocs) / uint64(b.N); b.N >= 50 && per > bound && !raceDetector {
		b.Fatalf("%d allocs per query, want at most %d", per, bound)
	}
}

// maxTailAllocs bounds BenchmarkTailSuperstep's allocs/op on one core: the
// result and the growth of its iteration records, nothing per superstep or
// per rank. Where the query's largest supersteps fan out, each worker
// goroutine its driver starts adds its start closure and, when the runtime
// has no finished goroutine to recycle, the goroutine itself.
const maxTailAllocs = 11
