package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/graph"
	"gcbfs/internal/mpi"
	"gcbfs/internal/rmat"
)

// goroutineBound samples runtime.NumGoroutine during one call — inside its
// phases, through the send hook every message read or sent passes, and
// between them from a sampler goroutine of its own, for the phases that pass
// no message (a gather) — and fails if a sample exceeds the count before the
// call plus the driver's workers beyond the caller: one goroutine per rank
// would.
func goroutineBound(t *testing.T, name string, call func(hook mpi.SendHook)) {
	t.Helper()
	var peak, samples atomic.Int64
	sample := func() {
		n := int64(runtime.NumGoroutine())
		for cur := peak.Load(); n > cur && !peak.CompareAndSwap(cur, n); cur = peak.Load() {
		}
	}
	var stop atomic.Bool
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for !stop.Load() {
			sample()
			runtime.Gosched()
		}
	}()
	before := int64(runtime.NumGoroutine()) // the sampler's included
	call(func(_, _, _ int, data []byte) []byte {
		sample()
		samples.Add(1)
		return data
	})
	stop.Store(true)
	<-stopped
	if samples.Load() == 0 {
		t.Fatalf("%s: no phase passed a message through the hook", name)
	}
	if limit := before + int64(graph.BuildWorkers()) - 1; peak.Load() > limit {
		t.Errorf("%s: %d goroutines during the call, want at most %d (%d before it, %d workers)",
			name, peak.Load(), limit, before, graph.BuildWorkers())
	}
}

// No rank has a goroutine of its own, on any path: on 32 ranks a cold run
// with and without its tree, a sweep, and a repair patched and resolved in
// full run every superstep and every finisher phase on the caller and the
// phase driver's workers. The graph is large enough for the finishers' phases
// to fan out (fanWork vertices).
func TestNoGoroutinePerRank(t *testing.T) {
	shape := ClusterShape{Nodes: 16, RanksPerNode: 2, GPUsPerRank: 2}
	el := rmat.Generate(rmat.DefaultParams(13))
	if el.N < fanWork {
		t.Fatalf("%d vertices: no finisher phase fans out", el.N)
	}
	source := repairSource(el)
	opts := repairOptions()
	p := buildPlan(t, el, shape, 32, opts)

	for _, parents := range []bool{true, false} {
		o := opts
		o.CollectParents = parents
		s := p.acquire(o)
		goroutineBound(t, fmt.Sprintf("run (parents %v)", parents), func(hook mpi.SendHook) {
			if res := runCounted(t, s, source, hook); (res.Parents != nil) != parents {
				t.Fatalf("run (parents %v): tree collected %v", parents, res.Parents != nil)
			}
		})
		p.release(s)
	}

	e := p.newSweepSession(opts, pickSources(el.OutDegrees(), 8, 3))
	goroutineBound(t, "sweep", func(hook mpi.SendHook) { runSweepCounted(e, hook) })

	b := delta.Synthesize(el, 0.002, delta.KindMixed, 42)
	prior, p2 := nextEpoch(t, el, shape, 32, opts, source, b)
	invalid := delta.Invalidated(prior.Levels, prior.Parents, b)
	ropts := p2.base
	ropts.DirectionOptimized = false // as Plan.repair runs it
	for _, full := range []bool{false, true} {
		s := p2.acquire(ropts)
		in := &repairIn{source: source, levels: prior.Levels, parents: prior.Parents, invalid: invalid, full: full}
		in.addInserts(b.Inserts)
		goroutineBound(t, fmt.Sprintf("repair (full %v)", full), func(hook mpi.SendHook) {
			s.resetTraversal()
			s.out = treeOut{levels: slices.Clone(in.levels), parents: slices.Clone(in.parents)}
			s.begin()
			s.drv.reset(s.acquireWorld())
			defer s.drv.stop()
			hooked(s.world, hook, func() error { return s.repairWave(context.Background(), in) })
		})
		p2.release(s)
	}
}
