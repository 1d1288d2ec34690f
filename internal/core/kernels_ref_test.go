package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gcbfs/internal/bitmask"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/simgpu"
)

// The backward kernels as they were before they learned to remember anything:
// every superstep re-derives its candidates from the masks (DDSourceMask &^
// visited, a full NDSources scan) and rescans them. They are the reference the
// generation-cached kernels (kernels.go) must match to the last counter —
// same proposals, same discover order, same edges and vertices charged.

// refKernels is runKernels on each of the rank's GPUs over the reference
// backward variants; forward kernels, previsit and nn are the production code
// (they did not change).
func refKernels(e *Session, myGPUs []*gpuState, iter int32) {
	dt := myGPUs[0].dt
	qD := dt.front.Count()
	sD := e.d - dt.visited.Count()
	for _, gs := range myGPUs {
		gs.it = iterWork{}
		var pv previsitOut
		e.previsit(gs, &pv)
		refDecideDirections(e, gs, &pv, qD, sD)
		if gs.dirDD == metrics.Backward {
			refBackwardDD(e, gs, &pv)
		} else {
			e.kernelDD(gs, &pv, iter)
		}
		if gs.dirND == metrics.Backward {
			refBackwardND(e, gs, iter)
		} else {
			e.kernelND(gs, &pv, iter)
		}
		if gs.dirDN == metrics.Backward {
			refBackwardDN(e, gs, iter)
		} else {
			e.kernelDN(gs, &pv, iter)
		}
		e.kernelNN(gs, &pv, iter)
	}
}

func refDecideDirections(e *Session, gs *gpuState, pv *previsitOut, qD, sD int64) {
	if !e.opts.DirectionOptimized {
		gs.dirDD, gs.dirDN, gs.dirND = metrics.Forward, metrics.Forward, metrics.Forward
		return
	}
	uDD := gs.pg.DDSourceMask.CountExcluding(gs.dt.visited)
	uND := gs.pg.DNSourceMask.CountExcluding(gs.dt.visited)
	uDN := gs.unvisitedNDSources
	qN := int64(len(gs.inFront))
	sN := gs.unvisitedNDSources
	gs.dirDD = decide(gs.dirDD, e.opts.FactorsDD, pv.fvDD, backwardWorkload(uDD, qD, sD))
	gs.dirDN = decide(gs.dirDN, e.opts.FactorsDN, pv.fvDN, backwardWorkload(uDN, qD, sD))
	gs.dirND = decide(gs.dirND, e.opts.FactorsND, pv.fvND, backwardWorkload(uND, qN, sN))
	gs.it.delegateStream += float64(2*(e.d/64)) / e.opts.GPU.VertexRate
}

func refBackwardDD(e *Session, gs *gpuState, pv *previsitOut) {
	var edges, vertices int64
	strategy := simgpu.MergePath
	if e.opts.ForceTWBForDD {
		strategy = simgpu.TWBDynamic
	}
	scratch := bitmask.New(e.d)
	scratch.CopyFrom(gs.pg.DDSourceMask)
	scratch.AndNot(gs.dt.visited)
	scratch.ForEach(func(u int64) {
		vertices++
		for _, dv := range gs.pg.DD.Neighbors(u) {
			edges++
			if gs.dt.visited.Get(int64(dv)) {
				gs.propose(u)
				break
			}
		}
	})
	vertices += e.d / 64
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: strategy,
		Skew: rowSkew(pv.maxDD, pv.fvDD, int64(len(pv.qDD))),
	})
}

func refBackwardND(e *Session, gs *gpuState, iter int32) {
	var edges, vertices int64
	scratch := bitmask.New(e.d)
	scratch.CopyFrom(gs.pg.DNSourceMask)
	scratch.AndNot(gs.dt.visited)
	scratch.AndNot(gs.newMask)
	scratch.ForEach(func(u int64) {
		vertices++
		for _, lv := range gs.pg.DN.Neighbors(u) {
			edges++
			if lvl := gs.levels[lv]; lvl >= 0 && lvl <= iter {
				gs.propose(u)
				break
			}
		}
	})
	vertices += e.d / 64
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: simgpu.TWBDynamic,
	})
}

func refBackwardDN(e *Session, gs *gpuState, iter int32) {
	var edges, vertices int64
	for _, v := range gs.pg.NDSources {
		if gs.levels[v] != -1 {
			continue
		}
		vertices++
		for _, dv := range gs.pg.ND.Neighbors(int64(v)) {
			edges++
			if gs.dt.visited.Get(int64(dv)) {
				gs.discover(v, iter+1)
				break
			}
		}
	}
	gs.it.edgesScanned += edges
	gs.it.normalStream += e.charge(gs.dev, simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: simgpu.TWBDynamic,
	})
}

// kernelsSwapped is a cold run's lanes with the kernels replaced.
type kernelsSwapped struct {
	*sourceLanes
	kernelSet func(*Session, []*gpuState, int32)
}

func (l kernelsSwapped) kernels(iter int32) { l.kernelSet(l.e, l.gpus, iter) }

// runColdWith is Plan.Run with the kernels replaced: runWave, with every
// rank's lanes wrapped. The replacement kernels record no tree candidates, so the
// run's tree comes from the dd and nd passes alone (the repair's full
// resolution), which the production kernels' recorded tree must match.
func runColdWith(t *testing.T, p *Plan, source int64, kernels func(*Session, []*gpuState, int32)) *metrics.RunResult {
	t.Helper()
	s := p.acquire(p.base)
	defer p.release(s)
	w := s.coldWave(source)
	for _, sc := range s.scratch {
		sc.dt.rec = nil
	}
	ctx := context.Background()
	res, err := s.traverse(ctx, source, newTreeOut(&s.opts, s.sg.N), func() error {
		s.bindWave(source, w)
		for rank, sc := range s.scratch {
			s.loops[rank].l = kernelsSwapped{&sc.lanes, kernels}
		}
		return s.runWave(ctx, w.schedule)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// delegateAndNormalSources picks one delegate and one normal vertex with
// edges, where the separation has them.
func delegateAndNormalSources(sep *partition.Separation) []int64 {
	var out []int64
	haveD, haveN := false, false
	for v := int64(0); v < sep.N && !(haveD && haveN); v++ {
		switch {
		case sep.OutDeg[v] == 0:
		case sep.IsDelegate(v) && !haveD:
			out, haveD = append(out, v), true
		case !sep.IsDelegate(v) && !haveN:
			out, haveN = append(out, v), true
		}
	}
	return out
}

func TestCachedBackwardKernelsMatchScanReference(t *testing.T) {
	graphs := []struct {
		name string
		el   *graph.EdgeList
	}{
		{"web8", gen.WebGraph(gen.WebParams{Scale: 8, EdgeFactor: 8, NumChains: 3, ChainLength: 40, Seed: 9})},
		{"rmat9", rmat.Generate(rmat.DefaultParams(9))},
	}
	shapes := []ClusterShape{{1, 1, 1}, {3, 1, 1}, {2, 2, 2}, {3, 1, 2}, {1, 2, 4}, {1, 3, 4}}
	// Besides the paper's factors (no switch-back), a set that switches
	// back: the live nd-source list must stay right across a forward spell.
	both := SwitchFactors{Fwd2Bwd: 0.5, Bwd2Fwd: 0.4}
	switchBack := DefaultOptions()
	switchBack.FactorsDD, switchBack.FactorsDN, switchBack.FactorsND = both, both, both
	optSets := []struct {
		name string
		opts Options
	}{{"paper", DefaultOptions()}, {"switchback", switchBack}, {"plain", PlainBFSOptions()}}
	for _, g := range graphs {
		// all-delegate, a mixed separation, zero-delegate
		for _, th := range []int64{0, 8, 1 << 40} {
			sep := partition.Separate(g.el, th)
			sources := delegateAndNormalSources(sep)
			for _, shape := range shapes {
				sg, err := partition.Distribute(g.el, sep, shape.PartitionConfig())
				if err != nil {
					t.Fatal(err)
				}
				for _, os := range optSets {
					opts := os.opts
					opts.CollectParents = true
					p, err := NewPlan(sg, shape, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, src := range sources {
						name := fmt.Sprintf("%s/th%d/%s/%s/src%d", g.name, th, shape, os.name, src)
						got, err := p.Run(context.Background(), src, Overrides{})
						if err != nil {
							t.Fatal(err)
						}
						want := runColdWith(t, p, src, refKernels)
						if !reflect.DeepEqual(got.PerIteration, want.PerIteration) {
							for i := range want.PerIteration {
								if i >= len(got.PerIteration) || got.PerIteration[i] != want.PerIteration[i] {
									t.Fatalf("%s: iteration %d differs\n got %+v\nwant %+v", name, i, got.PerIteration[i], want.PerIteration[i])
								}
							}
							t.Fatalf("%s: %d iterations, reference %d", name, len(got.PerIteration), len(want.PerIteration))
						}
						if !reflect.DeepEqual(got.Levels, want.Levels) {
							t.Fatalf("%s: levels differ from the scan reference", name)
						}
						if !reflect.DeepEqual(got.Parents, want.Parents) {
							t.Fatalf("%s: parents differ from the scan reference", name)
						}
						if got.SimSeconds != want.SimSeconds || got.EdgesScanned != want.EdgesScanned ||
							got.Wire != want.Wire || got.Exchange != want.Exchange {
							t.Fatalf("%s: run totals differ\n got %+v %+v\nwant %+v %+v", name, got.Wire, got.Exchange, want.Wire, want.Exchange)
						}
					}
				}
			}
		}
	}
}
