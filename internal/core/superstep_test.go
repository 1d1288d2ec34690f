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

	// A sweep that collects its trees adds its finisher's two, on any rank
	// count: the one its lane replay's posts ride, and the one after the
	// replay's reads and the delegate candidates' stripe min-fold, past which
	// the gather reads every rank's rows (one min-allreduce per rank while
	// the candidates were reduced stripe by stripe).
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

		// A Run's finisher is the same two when it collects the tree (a
		// min-allreduce and the gather's barrier while every rank received
		// every delegate's candidates), and none when it collects levels
		// only: the loop's last rendezvous already made every level final,
		// so the gather is a phase after it (one barrier while the finisher
		// ran on a goroutine per rank).
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
				want := uint64(0)
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

	// A repair that collects the tree adds the sum of the rows its patch
	// would read, then the patch's three — the rendezvous each of its two
	// pair rounds' posts ride, and the one between the first round's reads
	// and the second's posts — or, forced, the full resolution's two. (Three
	// in both while the candidates met in a reduce-scatter and the pair
	// rounds rode the mailboxes.)
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
		finisher := 4
		if full {
			finisher = 3
		}
		if got, want := s.world.Rendezvous()-before, uint64(3+2*res.Iterations+finisher); got != want {
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
	s.out = newTreeOut(&s.opts, s.sg.N)
	s.begin()
	s.drv.reset(s.acquireWorld())
	defer s.drv.stop()
	hooked(s.world, hook, func() error {
		w := s.coldWave(source)
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
	defer s.drv.stop()
	hooked(s.world, hook, func() error { return s.repairWave(context.Background(), in) })
	return s.result(in.source)
}

// Empty posts on the paper's all-pairs exchange: a message without ids is
// accounted but posted empty, never delivered — a reader visits only the
// sources that posted it something (mpi.Comm.PostedSources) — and the
// accounting cannot tell: it equals, field for field, a run that posts every
// message. A sweep's records and a repair's probe round and waves ride the
// same exchange under the same rule. The second shape has more than 64
// ranks, so a source set spans two words.
func TestAbsentMessagesAreAccountedNotDelivered(t *testing.T) {
	for _, shape := range []ClusterShape{{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}, {Nodes: 33, RanksPerNode: 2, GPUsPerRank: 1}} {
		t.Run(fmt.Sprintf("%dranks", shape.Ranks()), func(t *testing.T) { checkAbsentMessages(t, shape) })
	}
}

func checkAbsentMessages(t *testing.T, shape ClusterShape) {
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

		// A repair: its probe round and its waves ride the same exchange.
		rel := rmat.Generate(rmat.DefaultParams(10))
		source := repairSource(rel)
		ropts := repairOptions()
		ropts.Compression = mode
		b := delta.Synthesize(rel, 0.02, delta.KindMixed, 42)
		prior, p2 := nextEpoch(t, rel, shape, 32, ropts, source, b)
		invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
		ropts.CollectParents, ropts.DirectionOptimized = false, false
		var probes atomic.Int64
		repair := func(sendAll bool) *metrics.RunResult {
			s := p2.acquire(ropts)
			defer p2.release(s)
			for rank := range s.scratch {
				s.exchangers(rank).get(ExchangeAllPairs).(*allPairsExchange).sendAll = sendAll
			}
			delivered.Store(0)
			probes.Store(0)
			res := repairCounted(s, &repairIn{source: source, levels: prior.Levels, invalid: invalid, seeds: seeds}, func(src, dst, tag int, data []byte) []byte {
				if tag == probeTag {
					probes.Add(1)
				}
				return hook(src, dst, tag, data)
			})
			for _, sc := range s.scratch {
				sc.rx.ap.sendAll = false
			}
			return res
		}
		gotRepair := repair(false)
		gated, gatedProbes := delivered.Load(), probes.Load()
		wantRepair := repair(true)
		if gated == 0 || gated >= delivered.Load() || gatedProbes == 0 || gatedProbes >= probes.Load() {
			t.Fatalf("%s repair: delivered %d (%d probes) gated and %d (%d probes) sending all", mode, gated, gatedProbes, delivered.Load(), probes.Load())
		}
		if delivered.Load() != wantRepair.Exchange.Messages+int64(shape.Ranks()*(shape.Ranks()-1)) {
			t.Fatalf("%s repair: sending all delivered %d, modelled %d and a probe round", mode, delivered.Load(), wantRepair.Exchange.Messages)
		}
		if gotRepair.Wire != wantRepair.Wire || gotRepair.Exchange != wantRepair.Exchange || gotRepair.SimSeconds != wantRepair.SimSeconds ||
			!reflect.DeepEqual(gotRepair.PerIteration, wantRepair.PerIteration) || !reflect.DeepEqual(gotRepair.Levels, wantRepair.Levels) {
			t.Fatalf("%s repair: accounting depends on delivery\n got %+v %+v\nwant %+v %+v", mode, gotRepair.Wire, gotRepair.Exchange, wantRepair.Wire, wantRepair.Exchange)
		}
	}
}

// Every all-pairs round rides a rendezvous as posts: a Run with and without
// its tree (the replay's pair round), an 8-lane sweep with and without its
// trees and a repair's probe round send nothing through a mailbox
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
		src := delegateAndNormalSources(p.sg.Sep)[0]
		for _, parents := range []bool{false, true} {
			o := opts
			o.CollectParents = parents
			s := p.acquire(o)
			if res := runCounted(t, s, src, hook); res.Levels == nil || (res.Parents != nil) != parents {
				t.Fatalf("%s: not a run with levels and parents %v", mode, parents)
			}
			check(fmt.Sprintf("%s run (parents %v)", mode, parents), s.world)
			p.release(s)

			sweepOpts := o
			sweepOpts.CollectLevels = parents
			e := p.newSweepSession(sweepOpts, pickSources(el.OutDegrees(), 8, 3))
			runSweepCounted(e, hook)
			check(fmt.Sprintf("%s sweep (trees %v)", mode, parents), e.world)
		}

		rel := rmat.Generate(rmat.DefaultParams(10))
		source := repairSource(rel)
		ropts := repairOptions()
		ropts.Compression = mode
		b := delta.Synthesize(rel, 0.02, delta.KindMixed, 42)
		prior, p2 := nextEpoch(t, rel, shape, 32, ropts, source, b)
		invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
		ropts.CollectParents, ropts.DirectionOptimized = false, false
		s := p2.acquire(ropts)
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

// BenchmarkTailSuperstepRanks is BenchmarkTailSuperstep's fixed cost against
// the rank count: the same scale-14 web graph and the same four sources on 4,
// 8 and 16 ranks of two GPUs. A superstep whose host cost grows with the
// ranks and GPUs that have work, not with all of them, keeps the 16-rank
// ns/superstep near the 4-rank one.
func BenchmarkTailSuperstepRanks(b *testing.B) {
	opts := DefaultOptions()
	opts.CollectLevels = false
	el := gen.WebGraph(gen.DefaultWebParams(14))
	sources := pickSources(el.OutDegrees(), 4, 1)
	for _, nodes := range []int{2, 4, 8} {
		shape := ClusterShape{Nodes: nodes, RanksPerNode: 2, GPUsPerRank: 2}
		th := partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(shape.P()))
		p := buildPlan(b, el, shape, th, opts)
		b.Run(fmt.Sprintf("ranks=%d", shape.Ranks()), func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			var supersteps int
			for i := 0; i < b.N; i++ {
				res, err := p.Run(ctx, sources[i%len(sources)], Overrides{})
				if err != nil {
					b.Fatal(err)
				}
				supersteps += res.Iterations
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(supersteps), "ns/superstep")
		})
	}
}
