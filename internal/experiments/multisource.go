package experiments

import (
	"context"
	"fmt"

	"gcbfs/internal/core"
	"gcbfs/internal/metrics"
	"gcbfs/internal/wire"
)

// Cmp5MultiSource ablates the multi-source sweep engine (internal/core/sweep.go)
// against the independent-query batch path at growing batch widths K: the
// sweep answers all K queries in one BSP traversal over K-bit visited masks,
// so its per-query throughput should pull away as K grows while levels and
// parents stay bit-identical to independent runs. The sweep runs on the
// plan's all-pairs exchange and again on the butterfly and the hybrid. The
// runner asserts, on every K: bit-identical levels AND parents between every
// sweep and the batch for every query, the all-pairs sweep's per-query GTEPS
// strictly above the batch's at K ≥ 64, and at
// least 2× the batch's at K = 512 — the amortization claim the engine exists
// for. gteps/query is aggregate: Σ TEPS edges / Σ per-query seconds (the
// sweep's per-query seconds sum to the sweep's total traversal time).
func Cmp5MultiSource(p Params) (*Table, error) {
	scale := 12
	widths := []int{8, 64, 512}
	if p.Quick {
		scale = 10
		widths = []int{8, 64}
	}
	t := &Table{
		ID:    "cmp5",
		Title: "multi-source sweep (MS-BFS) vs independent batch queries",
		Paper: "beyond the paper — the §VI-A service workload (64 sources per data point) answered by one shared traversal (Then et al., VLDB 2015)",
		Headers: []string{"K", "mode", "mean iters", "edges/query", "wire kB/query",
			"ms/query", "gteps/query", "speedup"},
		Notes: []string{
			"levels and parents asserted bit-identical between sweep and batch for every query at every K, on every exchange",
			"sweep rows ride the plan's all-pairs exchange, sweep/butterfly and sweep/hybrid the exchange named (the records take the same exchangers a batch query's ids do)",
			"per-query counters and simulated seconds of a sweep are equal shares of the sweep totals",
			"sweep gteps/query asserted > batch at K ≥ 64 and ≥ 2× batch at K = 512",
			"adaptive codec on both paths: sweep records carry (id, K-bit mask) payloads through the same scheme-memoized selector",
		},
	}

	el := rmatGraph(scale)
	amp := ampFor(18, scale)
	th := suggestTH(el, 32)
	shape := core.ClusterShape{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2}
	opts := core.DefaultOptions()
	opts.Compression = wire.ModeAdaptive
	opts.WorkAmplification = amp
	opts.CollectLevels = true
	opts.CollectParents = true
	pl, _, err := buildPlan(el, shape, th, opts)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	for _, k := range widths {
		sources := pickSources(el.OutDegrees(), k, p.seed())
		if len(sources) < k {
			return nil, fmt.Errorf("cmp5: scale %d has only %d eligible sources for K=%d",
				scale, len(sources), k)
		}
		batch, err := pl.RunBatch(ctx, sources, expParallelism, core.Overrides{})
		if err != nil {
			return nil, err
		}
		// The sweep rides whichever exchange it is asked for: the plan's
		// all-pairs, the butterfly and the per-superstep hybrid.
		sweeps := map[string][]*metrics.RunResult{}
		for _, x := range []core.Exchange{core.ExchangeAllPairs, core.ExchangeButterfly, core.ExchangeHybrid} {
			mode := "sweep"
			if x != core.ExchangeAllPairs {
				mode += "/" + x.String()
			}
			sweep, err := pl.RunSweep(ctx, sources, core.Overrides{Exchange: &x})
			if err != nil {
				return nil, err
			}
			for q := range sources {
				b, s := batch[q], sweep[q]
				if b.Iterations != s.Iterations {
					return nil, fmt.Errorf("cmp5: K=%d src=%d: %s iterations %d vs batch %d",
						k, sources[q], mode, s.Iterations, b.Iterations)
				}
				for v := range b.Levels {
					if s.Levels[v] != b.Levels[v] {
						return nil, fmt.Errorf("cmp5: K=%d src=%d: vertex %d level %d (%s) vs %d (batch)",
							k, sources[q], v, s.Levels[v], mode, b.Levels[v])
					}
				}
				for v := range b.Parents {
					if s.Parents[v] != b.Parents[v] {
						return nil, fmt.Errorf("cmp5: K=%d src=%d: vertex %d parent %d (%s) vs %d (batch)",
							k, sources[q], v, s.Parents[v], mode, b.Parents[v])
					}
				}
			}
			sweeps[mode] = sweep
		}
		rate := func(rs []*metrics.RunResult) (gteps, msPerQ, edgesPerQ, wireKBPerQ, meanIters float64) {
			var teps, edges, wireBytes int64
			var sim float64
			for _, r := range rs {
				teps += r.TEPSEdges
				edges += r.EdgesScanned
				wireBytes += r.Wire.CompressedBytes
				sim += r.SimSeconds
				meanIters += float64(r.Iterations)
			}
			n := float64(len(rs))
			return float64(teps) / sim / 1e9, sim / n * 1e3,
				float64(edges) / n, float64(wireBytes) / n / 1024, meanIters / n
		}
		bG, bMS, bE, bW, bI := rate(batch)
		t.Rows = append(t.Rows,
			[]string{i64(int64(k)), "batch", f1(bI), f1(bE), f2(bW), fmt.Sprintf("%.4f", bMS), f2(bG), "1.00"})
		for _, mode := range []string{"sweep", "sweep/butterfly", "sweep/hybrid"} {
			g, ms, e, w, i := rate(sweeps[mode])
			t.Rows = append(t.Rows,
				[]string{i64(int64(k)), mode, f1(i), f1(e), f2(w), fmt.Sprintf("%.4f", ms), f2(g), f2(g / bG)})
		}
		sG, _, _, _, _ := rate(sweeps["sweep"])
		speedup := sG / bG
		if k >= 64 && sG <= bG {
			return nil, fmt.Errorf("cmp5: K=%d: sweep %.3f gteps/query not above batch %.3f",
				k, sG, bG)
		}
		if k >= 512 && speedup < 2 {
			return nil, fmt.Errorf("cmp5: K=%d: sweep speedup %.2f× below the 2× amortization bar",
				k, speedup)
		}
	}
	return t, nil
}
