package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gcbfs/internal/baseline"
	"gcbfs/internal/gen"
	"gcbfs/internal/graph"
	"gcbfs/internal/metrics"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// runUnfiltered is Plan.Run with the replay's child-level filter off: the
// bits are marked unknown once the session is seeded, so every visited vertex
// replays its nn row, as before the traversal kept the bit and as a repair
// wave's fallback still does.
func runUnfiltered(t testing.TB, p *Plan, src int64, ov Overrides) *metrics.RunResult {
	t.Helper()
	opts, err := p.effectiveOptions(ov)
	if err != nil {
		t.Fatal(err)
	}
	s := p.acquire(opts)
	defer p.release(s)
	ctx := context.Background()
	w := s.coldWave(src)
	s.childKnown = false
	res, err := s.traverse(ctx, src, newTreeOut(&s.opts, s.sg.N), func() error {
		s.bindWave(src, w)
		return s.runWave(ctx, w.schedule)
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameButPairs asserts that two results of one query report the same
// statistics and tree except for what the replay sent, naming every field
// that differs beyond those.
func requireSameButPairs(t testing.TB, label string, got, want *metrics.RunResult) {
	t.Helper()
	var moved []string
	for _, m := range fieldMoves(resultLines(want), resultLines(got)) {
		switch m.field {
		case "ParentPairs", "Wire.PairRawBytes", "Wire.PairWireBytes":
		default:
			moved = append(moved, m.String())
		}
	}
	if len(moved) > 0 {
		t.Fatalf("%s: results differ beyond ParentPairs and Wire.Pair*Bytes: %s", label, strings.Join(moved, "; "))
	}
}

// referenceHasChild is the ground truth of gpuState.hasChild from a finished
// query's levels and the graph: vertex u has the bit iff it is a visited
// normal vertex with a normal neighbor exactly one level down.
func referenceHasChild(csr *graph.CSR, sep *partition.Separation, levels []int32) []bool {
	has := make([]bool, len(levels))
	for u := range has {
		if levels[u] < 0 || sep.IsDelegate(int64(u)) {
			continue
		}
		for _, v := range csr.Neighbors(int64(u)) {
			if levels[v] == levels[u]+1 && !sep.IsDelegate(v) {
				has[u] = true
				break
			}
		}
	}
	return has
}

// TestReplayFilterOracle holds the filtered replay to its definition on every
// path an nn push can take to its owner — same GPU, sibling GPU, all-pairs
// message, butterfly hops with their merges, uniquified or not, any codec:
// after a Run the bit of every local slot equals the reference (equality: a
// missing bit would lose an offer, a spare one only costs pairs), the replay
// sent exactly the flagged rows' cross-GPU entries, and against the same query
// with the filter forced off nothing but the pair accounting moved.
func TestReplayFilterOracle(t *testing.T) {
	ctx := context.Background()
	for i, shape := range []ClusterShape{{1, 1, 1}, {2, 1, 2}, {3, 1, 2}, {1, 2, 4}, {4, 2, 2}} {
		el := rmat.Generate(rmat.DefaultParams(9 + i%4))
		csr := graph.BuildCSR(el)
		deg := el.OutDegrees()
		def := partition.SuggestThreshold(deg, 4*el.N/int64(shape.P()))
		for _, th := range []int64{0, 8, def, 1 << 40} {
			sep := partition.Separate(el, th)
			sg, err := partition.Distribute(el, sep, shape.PartitionConfig())
			if err != nil {
				t.Fatal(err)
			}
			// A delegate and a normal source where the threshold leaves one,
			// and an isolated vertex.
			sources := delegateAndNormalSources(sep)
			if iso := slices.Index(deg, 0); iso >= 0 {
				sources = append(sources, int64(iso))
			}
			for _, x := range []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid} {
				for _, uniq := range []bool{false, true} {
					for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
						opts := DefaultOptions()
						opts.CollectParents = true
						opts.Exchange, opts.Uniquify, opts.Compression = x, uniq, mode
						plan, err := NewPlan(sg, shape, opts)
						if err != nil {
							t.Fatal(err)
						}
						for _, src := range sources {
							label := fmt.Sprintf("%s/th%d/%s/uniq=%v/%s/src%d", shape, th, x, uniq, mode, src)
							s := plan.acquire(plan.base)
							res, err := s.run(ctx, src)
							if err != nil {
								t.Fatal(err)
							}
							want := referenceHasChild(csr, sep, res.Levels)
							var pairs int64
							for _, gs := range s.gpus {
								pg := gs.pg
								for slot := int64(0); slot < pg.NumLocal; slot++ {
									v := s.cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
									if got := gs.hasChild.Get(slot); got != want[v] {
										t.Fatalf("%s: vertex %d (level %d) child-level bit %v, reference %v", label, v, res.Levels[v], got, want[v])
									}
									if !want[v] {
										continue
									}
									for _, nb := range pg.NN.Neighbors(slot) {
										if s.cfg.OwnerGPU(nb) != pg.GPU {
											pairs++
										}
									}
								}
							}
							plan.release(s)
							if res.ParentPairs != pairs {
								t.Fatalf("%s: the replay sent %d pairs, the flagged rows hold %d cross-GPU entries", label, res.ParentPairs, pairs)
							}
							requireMinParents(t, label, csr, src, res.Levels, res.Parents)

							all := runUnfiltered(t, plan, src, Overrides{})
							if !slices.Equal(res.Levels, all.Levels) || !slices.Equal(res.Parents, all.Parents) {
								t.Fatalf("%s: the filtered replay gave another tree", label)
							}
							if res.ParentPairs > all.ParentPairs {
								t.Fatalf("%s: %d pairs filtered, %d unfiltered", label, res.ParentPairs, all.ParentPairs)
							}
							requireSameButPairs(t, label, res, all)
						}
					}
				}
			}
		}
	}
}

// TestGatherWritesEveryEntryOnce runs queries into result arrays the test has
// poisoned: the cooperative gather must overwrite every entry — make's zeroes
// would hide one it skipped — whatever the shape leaves a rank to write: a
// last row that is not full, GPUs without a single slot, one rank, twelve GPUs
// on three ranks, levels without parents, no delegate or nothing but, and a
// component the source cannot reach.
func TestGatherWritesEveryEntryOnce(t *testing.T) {
	const poison = -7
	twoPaths := gen.Path(23) // 0–…–11 and 12–…–22, the second unreachable from the first
	twoPaths.Edges = slices.DeleteFunc(twoPaths.Edges, func(e graph.Edge) bool { return min(e.U, e.V) == 11 })
	rmat9 := rmat.Generate(rmat.DefaultParams(9))
	for _, tc := range []struct {
		name    string
		el      *graph.EdgeList
		shape   ClusterShape
		th      int64
		parents bool
	}{
		{"n%p!=0", gen.Path(21), ClusterShape{2, 1, 2}, 1, true},
		{"n<p", gen.Path(5), ClusterShape{2, 1, 4}, 1, true},
		{"n<p/levels", gen.Path(5), ClusterShape{2, 1, 4}, 1, false},
		{"1-rank", rmat9, ClusterShape{1, 1, 2}, 8, true},
		{"3x4", rmat9, ClusterShape{3, 1, 4}, 8, true},
		{"levels-only", rmat9, ClusterShape{3, 1, 4}, 8, false},
		{"d=0", rmat9, ClusterShape{2, 2, 2}, 1 << 40, true},
		{"all-delegate", rmat9, ClusterShape{2, 2, 2}, 0, true},
		{"all-delegate/levels", rmat9, ClusterShape{2, 2, 2}, 0, false},
		{"unreachable", twoPaths, ClusterShape{3, 1, 2}, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			opts := DefaultOptions()
			opts.CollectParents = tc.parents
			plan := buildPlan(t, tc.el, tc.shape, tc.th, opts)
			csr := graph.BuildCSR(tc.el)
			sources := delegateAndNormalSources(plan.sg.Sep)
			sources = append(sources, tc.el.N-1)
			for _, src := range sources {
				s := plan.acquire(plan.base)
				w := s.coldWave(src)
				out := newTreeOut(&s.opts, tc.el.N)
				for v := range out.levels {
					out.levels[v] = poison
				}
				for v := range out.parents {
					out.parents[v] = poison
				}
				res, err := s.traverse(ctx, src, out, func() error {
					s.bindWave(src, w)
					return s.runWave(ctx, w.schedule)
				})
				plan.release(s)
				if err != nil {
					t.Fatal(err)
				}
				if (res.Parents != nil) != tc.parents {
					t.Fatalf("parents collected: %v, want %v", res.Parents != nil, tc.parents)
				}
				if v := slices.Index(res.Levels, poison); v >= 0 {
					t.Fatalf("source %d: the gather never wrote vertex %d's level", src, v)
				}
				if v := slices.Index(res.Parents, poison); v >= 0 {
					t.Fatalf("source %d: the gather never wrote vertex %d's parent", src, v)
				}
				if want := baseline.SerialBFS(csr, src); !slices.Equal(res.Levels, want) {
					t.Fatalf("source %d: levels differ from the serial BFS", src)
				}
				if tc.parents {
					requireMinParents(t, tc.name, csr, src, res.Levels, res.Parents)
				}
			}
		})
	}
}
