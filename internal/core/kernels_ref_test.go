package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gcbfs/internal/baseline"
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
	gs.pg.DDSourceMask.ForEachExcluding(func(u int64) {
		vertices++
		for _, dv := range gs.pg.DD.Neighbors(u) {
			edges++
			if gs.dt.visited.Get(int64(dv)) {
				gs.propose(u)
				break
			}
		}
	}, gs.dt.visited)
	vertices += e.d / 64
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(simgpu.KernelCost{
		Edges: edges, Vertices: vertices, Strategy: strategy,
		Skew: rowSkew(pv.maxDD, pv.fvDD, int64(len(pv.qDD))),
	})
}

func refBackwardND(e *Session, gs *gpuState, iter int32) {
	var edges, vertices int64
	gs.pg.DNSourceMask.ForEachExcluding(func(u int64) {
		vertices++
		for _, lv := range gs.pg.DN.Neighbors(u) {
			edges++
			if lvl := gs.levels[lv]; lvl >= 0 && lvl <= iter {
				gs.propose(u)
				break
			}
		}
	}, gs.dt.visited, gs.newMask)
	vertices += e.d / 64
	gs.it.edgesScanned += edges
	gs.it.delegateStream += e.charge(simgpu.KernelCost{
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
	gs.it.normalStream += e.charge(simgpu.KernelCost{
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
	ctx := context.Background()
	res, err := s.traverse(ctx, source, newTreeOut(&s.opts, s.sg.N), func() error {
		w := s.coldWave(source)
		for _, sc := range s.scratch {
			sc.dt.rec = nil
		}
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

// A quiescent GPU's replayed kernels (quietKernels) are its full kernels: at
// every superstep of a web graph's long tail where a GPU with a kept record
// has no input frontier and no delegate frontier, what runKernels does — a
// replay where the record still holds — equals the full kernels run again on
// the same state, directions included, unless it found something, which a
// replay never does. The tail visits a delegate deep down and goes on past
// it, so a record kept from before that visit would be stale. Direction
// optimization is on, with the paper's factors (a backward GPU stays
// backward) and with a Bwd2Fwd factor above zero, which turns an idle GPU
// forward.
func TestQuiescentReplayMatchesFullKernels(t *testing.T) {
	el := gen.WebGraph(gen.WebParams{Scale: 10, EdgeFactor: 8, NumChains: 4, ChainLength: 120, Seed: 3})
	sources := pickSources(el.OutDegrees(), 3, 1)
	// From the vertex farthest from the first source, a hub of 40 leaves —
	// a delegate at threshold 16 — and a chain of 30 past its last leaf.
	levels := baseline.SerialBFS(graph.BuildCSR(el), sources[0])
	far := int64(slices.Index(levels, slices.Max(levels)))
	const leaves, chain = 40, 30
	hub := el.N
	el = &graph.EdgeList{N: el.N + 1 + leaves + chain, Edges: slices.Clone(el.Edges)}
	link := func(u, v int64) { el.Add(u, v); el.Add(v, u) }
	link(far, hub)
	for i := range int64(leaves) {
		link(hub, hub+1+i)
	}
	for v := hub + 1 + leaves; v < el.N; v++ {
		link(max(v-1, hub+1), v)
	}
	shape := ClusterShape{Nodes: 2, RanksPerNode: 2, GPUsPerRank: 2}
	switchBack := DefaultOptions()
	both := SwitchFactors{Fwd2Bwd: 0.5, Bwd2Fwd: 0.4}
	switchBack.FactorsDD, switchBack.FactorsDN, switchBack.FactorsND = both, both, both
	for name, opts := range map[string]Options{"paper": DefaultOptions(), "switchback": switchBack} {
		p := buildPlan(t, el, shape, 16, opts)
		checked, replays, backward := 0, 0, 0
		check := func(e *Session, myGPUs []*gpuState, iter int32) {
			for _, gs := range myGPUs {
				q := gs.quiet
				gs.it = iterWork{}
				if len(gs.inFront) > 0 || gs.dt.frontN > 0 || !q.kept {
					e.runKernels(gs, iter)
					continue
				}
				dd, dn, nd := gs.dirDD, gs.dirDN, gs.dirND
				if q.holds(gs) {
					if d1, d2, d3 := e.directions(gs, &previsitOut{}); d1 == q.dirDD && d2 == q.dirDN && d3 == q.dirND {
						replays++
						if q.dirDD == metrics.Backward || q.dirDN == metrics.Backward || q.dirND == metrics.Backward {
							backward++
						}
					}
				}
				e.runKernels(gs, iter)
				if gs.newDirty || len(gs.outFront) > 0 {
					continue // the full kernels ran, and found something
				}
				checked++
				got, dirs := gs.it, [3]metrics.Direction{gs.dirDD, gs.dirDN, gs.dirND}
				gs.dirDD, gs.dirDN, gs.dirND = dd, dn, nd
				gs.quiet.kept = false
				gs.it = iterWork{}
				e.runKernels(gs, iter)
				if gs.newDirty || len(gs.outFront) > 0 {
					t.Fatalf("%s: superstep %d, GPU %d: the full kernels found what runKernels did not", name, iter, gs.pg.GPU)
				}
				if full := [3]metrics.Direction{gs.dirDD, gs.dirDN, gs.dirND}; gs.it != got || full != dirs {
					t.Fatalf("%s: superstep %d, GPU %d: runKernels %+v %v, full kernels %+v %v", name, iter, gs.pg.GPU, got, dirs, gs.it, full)
				}
			}
		}
		for _, src := range sources {
			got := runColdWith(t, p, src, check)
			want, err := p.Run(context.Background(), src, Overrides{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.PerIteration, want.PerIteration) || got.SimSeconds != want.SimSeconds || !reflect.DeepEqual(got.Levels, want.Levels) {
				t.Fatalf("%s: source %d: the checked run differs from Plan.Run", name, src)
			}
		}
		if replays == 0 || name == "paper" && backward == 0 {
			t.Fatalf("%s: %d replays, %d of them backward: the test exercised nothing", name, replays, backward)
		}
		t.Logf("%s: %d quiescent supersteps checked, %d replays, %d backward", name, checked, replays, backward)
	}
}

// A kept record holds while nothing a backward kernel reads has changed: a
// backward record until the visited generation moves or an nd source is
// discovered, an all-forward one whatever the state.
func TestQuietRecordHolds(t *testing.T) {
	gs := &gpuState{dt: &delegateTier{visGen: 5}, unvisitedNDSources: 9}
	backward := quietKernels{kept: true, gen: 5, unvisitedND: 9, dirDD: metrics.Forward, dirDN: metrics.Backward, dirND: metrics.Forward}
	forward := quietKernels{kept: true, gen: 1, unvisitedND: 40}
	for _, c := range []struct {
		name        string
		q           quietKernels
		gen         uint64
		unvisitedND int64
		holds       bool
	}{
		{"backward, nothing changed", backward, 5, 9, true},
		{"backward, a delegate visited", backward, 6, 9, false},
		{"backward, an nd source discovered", backward, 5, 8, false},
		{"forward, everything changed", forward, 6, 8, true},
		{"nothing kept", quietKernels{}, 5, 9, false},
	} {
		gs.dt.visGen, gs.unvisitedNDSources = c.gen, c.unvisitedND
		if got := c.q.holds(gs); got != c.holds {
			t.Errorf("%s: holds = %v, want %v", c.name, got, c.holds)
		}
	}
}
