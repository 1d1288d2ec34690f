package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gcbfs/internal/delta"
	"gcbfs/internal/faults"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// chaosOptions is the standard configuration for injection tests: the
// default compression (off — raw blocks are checksummed like any other),
// parents collected so the parent-resolution payloads flow, and the injector
// armed.
func chaosOptions(in *faults.Injector, x Exchange) Options {
	o := DefaultOptions()
	o.Exchange = x
	o.CollectLevels = true
	o.CollectParents = true
	o.Inject = in
	return o
}

// chaosModes is the compression axis of the payload-fault tables: the default
// fixed-width packing and the adaptive codec.
var chaosModes = []wire.Mode{wire.ModeOff, wire.ModeAdaptive}

// chaosSeeds is how many injector seeds a corruption case sweeps: each seed
// flips a different bit of every message, so no case rests on where one flip
// happened to land.
const chaosSeeds = 16

func chaosGraph(t testing.TB) *partition.Subgraphs {
	t.Helper()
	el := rmat.Generate(rmat.DefaultParams(9))
	sep := partition.Separate(el, 8)
	sg, err := partition.Distribute(el, sep, ClusterShape{2, 2, 2}.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

func chaosPlan(t testing.TB, in *faults.Injector, x Exchange) *Plan {
	t.Helper()
	p, err := NewPlan(chaosGraph(t), ClusterShape{2, 2, 2}, chaosOptions(in, x))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wantCorrupt requires a contained payload fault: no result, an error chain
// carrying wire.ErrCorrupt, and the panic site's name in the message.
func wantCorrupt(t *testing.T, gotResult bool, err error, wantMsg string) {
	t.Helper()
	if err == nil {
		t.Fatal("rate-1 payload fault did not fail the run")
	}
	if gotResult {
		t.Fatal("partial result escaped alongside the error")
	}
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("error not wire.ErrCorrupt-typed: %v", err)
	}
	if !strings.Contains(err.Error(), wantMsg) {
		t.Fatalf("error %q does not name the %q panic site", err, wantMsg)
	}
}

// TestPayloadFaultsSurfaceTypedErrors drives every payload panic site with a
// site-targeted injector, under the default fixed-width packing and under the
// codec, and requires the contained error to carry wire.ErrCorrupt — never a
// bare panic, never a partial result — on every injector seed. The site
// substring in the error message proves the intended panic site fired.
func TestPayloadFaultsSurfaceTypedErrors(t *testing.T) {
	cases := []struct {
		name     string
		exchange Exchange
		kind     faults.Kind
		site     string
		wantMsg  string
	}{
		{"corrupt/allpairs-exchange", ExchangeAllPairs, faults.KindCorrupt, faults.SiteExchange, "exchange payload"},
		{"truncate/allpairs-exchange", ExchangeAllPairs, faults.KindTruncate, faults.SiteExchange, "exchange payload"},
		{"drop/allpairs-exchange", ExchangeAllPairs, faults.KindDrop, faults.SiteExchange, "exchange payload"},
		{"corrupt/butterfly-hop", ExchangeButterfly, faults.KindCorrupt, faults.SiteExchange, "butterfly payload"},
		{"truncate/butterfly-hop", ExchangeButterfly, faults.KindTruncate, faults.SiteExchange, "butterfly payload"},
		{"corrupt/parents", ExchangeAllPairs, faults.KindCorrupt, faults.SiteParents, "pair payload"},
	}
	sg := chaosGraph(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range chaosModes {
				t.Run(mode.String(), func(t *testing.T) {
					for seed := uint64(1); seed <= chaosSeeds; seed++ {
						in := faults.New(seed, tc.kind, 1).WithSites(tc.site)
						opts := chaosOptions(in, tc.exchange)
						opts.Compression = mode
						p, err := NewPlan(sg, ClusterShape{2, 2, 2}, opts)
						if err != nil {
							t.Fatal(err)
						}
						r, err := p.Run(context.Background(), 0, Overrides{})
						wantCorrupt(t, r != nil, err, tc.wantMsg)
						if in.Injected() == 0 {
							t.Fatal("run failed but the injector fired nothing")
						}
					}
				})
			}
		})
	}
}

// TestSweepFaultSurfacesTypedError: a sweep's records ride the exchangers a
// run's ids do, so a corrupted record message surfaces from the same panic
// sites — under the sweep's own injection site, on either strategy.
func TestSweepFaultSurfacesTypedError(t *testing.T) {
	sg := chaosGraph(t)
	for _, mode := range chaosModes {
		t.Run(mode.String(), func(t *testing.T) {
			for _, tc := range []struct {
				exchange Exchange
				wantMsg  string
			}{
				{ExchangeAllPairs, "exchange payload"},
				{ExchangeButterfly, "butterfly payload"},
			} {
				for seed := uint64(1); seed <= chaosSeeds; seed++ {
					in := faults.New(seed, faults.KindCorrupt, 1).WithSites(faults.SiteSweep)
					opts := chaosOptions(in, tc.exchange)
					opts.Compression = mode
					p, err := NewPlan(sg, ClusterShape{2, 2, 2}, opts)
					if err != nil {
						t.Fatal(err)
					}
					rs, err := p.RunSweep(context.Background(), []int64{0, 1, 2}, Overrides{})
					wantCorrupt(t, rs != nil, err, tc.wantMsg)
				}
			}
		})
	}
}

// TestRepairFaultsSurfaceTypedErrors targets the two repair-only payload
// sites — the invalidation probe's round and the repair's parent resolution —
// on a real incremental plan with a synthesized delta, in the default
// configuration. The probe's ids ride the all-pairs exchange, so a flipped
// probe message panics as the exchange's does; its hop tag keys the fault on
// the probe site, so an injector armed there alone must fire. Every flip of a
// probe id must be caught (a clean decode would silently drop a corrective
// seed): the cases sweep the injector seed.
func TestRepairFaultsSurfaceTypedErrors(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := ClusterShape{2, 2, 2}
	cfg := shape.PartitionConfig()
	sep := partition.Separate(el, 8)
	sg, err := partition.Distribute(el, sep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlanEpoch(sg, shape, chaosOptions(nil, ExchangeAllPairs), 1)
	if err != nil {
		t.Fatal(err)
	}
	prior, err := p1.Run(context.Background(), 0, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	b := delta.Synthesize(el, 0.05, delta.KindMixed, 7)
	el2, err := delta.Apply(el, b)
	if err != nil {
		t.Fatal(err)
	}
	sep2 := partition.Separate(el2, 8)
	sg2, _, err := partition.DistributeIncremental(el2, sep2, cfg, sg)
	if err != nil {
		t.Fatal(err)
	}
	invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)

	for _, tc := range []struct {
		name, site, wantMsg string
	}{
		{"probe", faults.SiteProbe, "exchange payload"},
		{"parents", faults.SiteParents, "pair payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= chaosSeeds; seed++ {
				in := faults.New(seed, faults.KindCorrupt, 1).WithSites(tc.site)
				p2, err := NewPlanEpoch(sg2, shape, chaosOptions(in, ExchangeAllPairs), 2)
				if err != nil {
					t.Fatal(err)
				}
				r, err := p2.RunRepair(context.Background(), 0, prior.Levels, invalid, seeds, Overrides{})
				wantCorrupt(t, r != nil, err, tc.wantMsg)
				if in.Injected() == 0 {
					t.Fatalf("seed %d: the run failed but the %s-only injector fired nothing", seed, tc.site)
				}
			}
		})
	}
}

func TestCrashSurfacesInjectedError(t *testing.T) {
	in := faults.New(4, faults.KindCrash, 1).WithSites(faults.SiteIter)
	p := chaosPlan(t, in, ExchangeAllPairs)
	r, err := p.Run(context.Background(), 0, Overrides{})
	if err == nil {
		t.Fatal("rate-1 crash did not fail the run")
	}
	if r != nil {
		t.Fatal("partial result escaped alongside the error")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("crash error not faults.ErrInjected-typed: %v", err)
	}
}

// crashAt is a cold run's lanes that crash, as the injector's iteration site
// does, when their rank is one of ranks at superstep iter.
type crashAt struct {
	*sourceLanes
	iter  int32
	ranks []int
}

func (l crashAt) kernels(iter int32) {
	if iter == l.iter && slices.Contains(l.ranks, l.rank) {
		panic(faults.Crash{Rank: l.rank, Iter: int(iter), Site: faults.SiteIter})
	}
	l.sourceLanes.kernels(iter)
}

// A crash at (rank r, superstep i) returns the same typed error, naming rank
// r, on every run, under every exchange: the driver reports the lowest
// faulting rank of a phase, whichever worker reached it first, so a second
// crash at a higher rank in the same superstep never wins. The superstep is
// the query's largest, whose phases fan out where there is a second core.
// An injector firing everywhere crashes every rank at the first superstep,
// and names rank 0 the same way.
func TestCrashNamesItsRank(t *testing.T) {
	ctx := context.Background()
	shape := ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}
	const rank = 3
	for _, x := range []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid} {
		opts := DefaultOptions()
		opts.Exchange = x
		opts.CollectParents = true
		p := buildPlanT(t, 13, shape, opts, false)
		src := delegateAndNormalSources(p.sg.Sep)[1]
		ref, err := p.Run(ctx, src, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		big, work := int32(0), int64(-1)
		for i, it := range ref.PerIteration {
			if w := it.FrontierNormals + fanDelegate*it.FrontierDelegates; w > work {
				big, work = int32(it.Iteration), w
			}
			if i > 0 && it.FrontierNormals+ref.PerIteration[i-1].EdgesScanned > work {
				big, work = int32(it.Iteration), it.FrontierNormals+ref.PerIteration[i-1].EdgesScanned
			}
		}
		if work < fanWork {
			t.Fatalf("%s: the largest superstep weighs %d, below the fan-out threshold %d", x, work, fanWork)
		}
		for run := 0; run < 50; run++ {
			s := p.acquire(p.base)
			res, err := s.traverse(ctx, src, newTreeOut(&s.opts, s.sg.N), func() error {
				w := s.coldWave(src)
				s.bindWave(src, w)
				for r, sc := range s.scratch {
					s.loops[r].l = crashAt{&sc.lanes, big, []int{rank + 2, rank}}
				}
				return s.runWave(ctx, w.schedule)
			})
			poisoned := s.poisoned
			p.release(s)
			var crash faults.Crash
			if res != nil || !errors.As(err, &crash) || !errors.Is(err, faults.ErrInjected) || !poisoned {
				t.Fatalf("%s run %d: result %v, err %v, poisoned %v", x, run, res != nil, err, poisoned)
			}
			if crash.Rank != rank || crash.Iter != int(big) || !strings.HasPrefix(err.Error(), fmt.Sprintf("core: rank %d: ", rank)) {
				t.Fatalf("%s run %d: %v, want rank %d's crash at superstep %d", x, run, err, rank, big)
			}
		}

		everywhere := chaosOptions(faults.New(4, faults.KindCrash, 1).WithSites(faults.SiteIter), x)
		q, err := NewPlan(p.sg, shape, everywhere)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 50; run++ {
			_, err := q.Run(ctx, src, Overrides{})
			var crash faults.Crash
			if !errors.As(err, &crash) || crash.Rank != 0 || crash.Iter != 0 || !strings.HasPrefix(err.Error(), "core: rank 0: ") {
				t.Fatalf("%s run %d, crash everywhere: %v, want rank 0's at superstep 0", x, run, err)
			}
		}
	}
}

// TestStallIsHarmless: a stall-armed run must succeed with bit-identical
// results and simulated time no less than the fault-free run.
func TestStallIsHarmless(t *testing.T) {
	clean := chaosPlan(t, nil, ExchangeAllPairs)
	ref, err := clean.Run(context.Background(), 0, Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(5, faults.KindStall, 1)
	p := chaosPlan(t, in, ExchangeAllPairs)
	r, err := p.Run(context.Background(), 0, Overrides{})
	if err != nil {
		t.Fatalf("stall failed the run: %v", err)
	}
	if in.Injected() == 0 {
		t.Fatal("rate-1 stall never fired")
	}
	for v := range ref.Levels {
		if r.Levels[v] != ref.Levels[v] {
			t.Fatalf("vertex %d level %d, fault-free %d", v, r.Levels[v], ref.Levels[v])
		}
	}
	if r.SimSeconds < ref.SimSeconds {
		t.Fatalf("stalled run simulated %.6f s, faster than fault-free %.6f s", r.SimSeconds, ref.SimSeconds)
	}
}

// TestPoisonedSessionNeverRecycled: a clean plan recycles its session (hit on
// the second acquire); a crashing plan poisons it, so every acquire is a miss.
// Under the race detector sync.Pool.Put drops items at random, so there the
// clean plan's second acquire may miss too; the poisoned half is exact always.
func TestPoisonedSessionNeverRecycled(t *testing.T) {
	clean := chaosPlan(t, nil, ExchangeAllPairs)
	for i := 0; i < 2; i++ {
		if _, err := clean.Run(context.Background(), 0, Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := clean.PoolStats(); st.Hits+st.Misses != 2 || st.Misses < 1 || (!raceDetector && st.Misses != 1) {
		t.Fatalf("clean plan pool stats %+v, want 1 miss then 1 hit", st)
	}

	in := faults.New(6, faults.KindCrash, 1).WithSites(faults.SiteIter)
	p := chaosPlan(t, in, ExchangeAllPairs)
	for i := 0; i < 2; i++ {
		if _, err := p.Run(context.Background(), 0, Overrides{}); err == nil {
			t.Fatal("crash plan run succeeded")
		}
		in.NextAttempt()
	}
	if st := p.PoolStats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("crash plan pool stats %+v, want 2 misses and 0 hits — a poisoned session was recycled", st)
	}
}

// TestNoGoroutineLeakUnderFaults hammers the engine with crashes and
// mid-run cancellations and requires the goroutine count to settle back.
func TestNoGoroutineLeakUnderFaults(t *testing.T) {
	in := faults.New(8, faults.KindCrash, 1).WithSites(faults.SiteIter)
	p := chaosPlan(t, in, ExchangeAllPairs)
	clean := chaosPlan(t, nil, ExchangeAllPairs)
	baseline := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		if _, err := p.Run(context.Background(), 0, Overrides{}); err == nil {
			t.Fatal("crash plan run succeeded")
		}
		in.NextAttempt()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
			cancel()
		}()
		clean.Run(ctx, 0, Overrides{})
		cancel()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
