package core

import (
	"context"
	"errors"
	"runtime"
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
// checksummed codec (the fixed-width packing has no CRC, so an in-range bit
// flip there decodes cleanly), parents collected so the parent-resolution
// payloads flow, and the injector armed.
func chaosOptions(in *faults.Injector, x Exchange) Options {
	o := DefaultOptions()
	o.Exchange = x
	o.CollectLevels = true
	o.CollectParents = true
	o.Compression = wire.ModeAdaptive
	o.Inject = in
	return o
}

func chaosPlan(t testing.TB, in *faults.Injector, x Exchange) *Plan {
	t.Helper()
	el := rmat.Generate(rmat.DefaultParams(9))
	sep := partition.Separate(el, 8)
	sg, err := partition.Distribute(el, sep, ClusterShape{2, 2, 2}.PartitionConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(sg, ClusterShape{2, 2, 2}, chaosOptions(in, x))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPayloadFaultsSurfaceTypedErrors drives every payload panic site with a
// site-targeted injector and requires the contained error to carry
// wire.ErrCorrupt — never a bare panic, never a partial result. The site
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
		{"corrupt/parents", ExchangeAllPairs, faults.KindCorrupt, faults.SiteParents, "parent payload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := faults.New(1, tc.kind, 1).WithSites(tc.site)
			p := chaosPlan(t, in, tc.exchange)
			r, err := p.Run(context.Background(), 0, Overrides{})
			if err == nil {
				t.Fatalf("rate-1 %v at site %q did not fail the run", tc.kind, tc.site)
			}
			if r != nil {
				t.Fatal("partial result escaped alongside the error")
			}
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("error not wire.ErrCorrupt-typed: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not name the %q panic site", err, tc.wantMsg)
			}
			if in.Injected() == 0 {
				t.Fatal("run failed but the injector fired nothing")
			}
		})
	}
}

func TestSweepFaultSurfacesTypedError(t *testing.T) {
	in := faults.New(2, faults.KindCorrupt, 1).WithSites(faults.SiteSweep)
	p := chaosPlan(t, in, ExchangeAllPairs)
	rs, err := p.RunSweep(context.Background(), []int64{0, 1, 2}, Overrides{})
	if err == nil {
		t.Fatal("rate-1 sweep corruption did not fail the sweep")
	}
	if rs != nil {
		t.Fatal("partial sweep results escaped alongside the error")
	}
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("error not wire.ErrCorrupt-typed: %v", err)
	}
	if !strings.Contains(err.Error(), "sweep payload") {
		t.Fatalf("error %q does not name the sweep panic site", err)
	}
}

// TestRepairFaultsSurfaceTypedErrors targets the two repair-only payload
// sites — invalidation probes and the repair's parent resolution — on a real
// incremental plan with a synthesized delta.
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
		{"probe", faults.SiteProbe, "probe payload"},
		{"parents", faults.SiteParents, "parent payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := faults.New(3, faults.KindCorrupt, 1).WithSites(tc.site)
			p2, err := NewPlanEpoch(sg2, shape, chaosOptions(in, ExchangeAllPairs), 2)
			if err != nil {
				t.Fatal(err)
			}
			r, err := p2.RunRepair(context.Background(), 0, prior.Levels, invalid, seeds, Overrides{})
			if err == nil {
				t.Fatalf("rate-1 corruption at site %q did not fail the repair", tc.site)
			}
			if r != nil {
				t.Fatal("partial repair result escaped alongside the error")
			}
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("error not wire.ErrCorrupt-typed: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not name the %q panic site", err, tc.wantMsg)
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
func TestPoisonedSessionNeverRecycled(t *testing.T) {
	clean := chaosPlan(t, nil, ExchangeAllPairs)
	for i := 0; i < 2; i++ {
		if _, err := clean.Run(context.Background(), 0, Overrides{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := clean.PoolStats(); st.Misses != 1 || st.Hits != 1 {
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
