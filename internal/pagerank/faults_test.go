package pagerank

import (
	"errors"
	"strings"
	"testing"

	"gcbfs/internal/core"
	"gcbfs/internal/faults"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// TestPayloadFaultSurfacesTypedError drives the decode panic site of core's
// pair round, which every pair message shares: a mangled contribution payload
// must surface as a wire.ErrCorrupt-typed error naming the pair payload, never
// a bare panic or a partial result.
func TestPayloadFaultSurfacesTypedError(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	sg := buildSub(t, el, shape, 8)
	for _, kind := range []faults.Kind{faults.KindCorrupt, faults.KindTruncate, faults.KindDrop} {
		// Every seed mangles different bytes of every message.
		for seed := uint64(1); seed <= 16; seed++ {
			opts := DefaultOptions()
			in := faults.New(seed, kind, 1)
			opts.Inject = in
			res, err := Run(sg, shape, opts)
			if err == nil {
				t.Fatalf("rate-1 %v (seed %d) did not fail the run", kind, seed)
			}
			if res != nil {
				t.Fatalf("%v: partial result escaped alongside the error", kind)
			}
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("%v: error not wire.ErrCorrupt-typed: %v", kind, err)
			}
			if !strings.Contains(err.Error(), "pair payload") {
				t.Fatalf("%v: error %q does not name the pair round's panic site", kind, err)
			}
			if in.Injected() == 0 {
				t.Fatalf("%v: run failed but the injector fired nothing", kind)
			}
		}
	}
}

func TestCrashSurfacesInjectedError(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	sg := buildSub(t, el, shape, 8)
	opts := DefaultOptions()
	opts.Inject = faults.New(2, faults.KindCrash, 1).WithSites(faults.SiteIter)
	res, err := Run(sg, shape, opts)
	if err == nil {
		t.Fatal("rate-1 crash did not fail the run")
	}
	if res != nil {
		t.Fatal("partial result escaped alongside the error")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("crash error not faults.ErrInjected-typed: %v", err)
	}
}

// TestStallIsHarmless: stalls skew simulated time, never results.
func TestStallIsHarmless(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(9))
	shape := core.ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	sg := buildSub(t, el, shape, 8)
	ref, err := Run(sg, shape, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	in := faults.New(3, faults.KindStall, 1)
	opts.Inject = in
	res, err := Run(sg, shape, opts)
	if err != nil {
		t.Fatalf("stall failed the run: %v", err)
	}
	if in.Injected() == 0 {
		t.Fatal("rate-1 stall never fired")
	}
	checkClose(t, res.Ranks, ref.Ranks, 0)
	if res.SimSeconds < ref.SimSeconds {
		t.Fatalf("stalled run simulated %.6f s, faster than fault-free %.6f s",
			res.SimSeconds, ref.SimSeconds)
	}
}
