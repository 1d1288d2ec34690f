package experiments

import (
	"fmt"

	"gcbfs/internal/core"
	"gcbfs/internal/metrics"
)

// Cmp7Hierarchy measures the two-level NVLink-aware exchange (internal/core/
// exchange.go) — the GPUs of a rank combine their bins over NVLink into one
// merged message per destination rank — across {all-pairs, butterfly, hybrid}
// and GPUs-per-rank counts. A rank sends ranks−1 messages per all-pairs round
// whatever its GPU count, sized into the network's high-efficiency regime,
// and pays simulated NVLink aggregation time that the butterfly mostly hides
// as a third pipeline resource. The runner asserts on every cell: levels
// bit-identical across every policy, the all-pairs message count exactly
// iterations × ranks × (ranks−1), and hybrid elapsed no worse than 1.05× the
// best fixed policy.
func Cmp7Hierarchy(p Params) (*Table, error) {
	scales := []int{12, 14}
	rankCounts := []int{4, 6}
	if p.Quick {
		scales = []int{11}
		rankCounts = []int{4}
	}
	gpusPerRank := []int{2, 4}
	t := &Table{
		ID:    "cmp7",
		Title: "hierarchical exchange: intra-rank NVLink aggregation across policies and GPUs per rank",
		Paper: "beyond the paper — the Local-All2All idea promoted into a two-level inter-rank exchange",
		Headers: []string{"scale", "ranks", "gpus/rank", "policy", "msg/rank/iter",
			"nvlink µs", "hidden µs", "remote-normal ms", "elapsed ms"},
		Notes: []string{
			"levels asserted bit-identical across every policy on every cell",
			"all-pairs messages asserted exactly iterations × ranks × (ranks−1), whatever the GPUs per rank",
			"hybrid asserted ≤ 1.05× the best fixed policy's elapsed time",
			"nvlink µs is the simulated intra-rank aggregation/staging time; hidden µs the share the butterfly ran under hop transfers",
			"staging/NVLink time is charged inside local-comm, so remote-normal is the pure wire+codec schedule and directly comparable across GPU counts",
		},
	}

	policies := []core.Exchange{core.ExchangeAllPairs, core.ExchangeButterfly, core.ExchangeHybrid}
	for _, scale := range scales {
		el := rmatGraph(scale)
		amp := ampFor(18, scale)
		th := suggestTH(el, 32)
		sources := pickSources(el.OutDegrees(), p.sources(), p.seed())
		for _, ranks := range rankCounts {
			for _, pgpu := range gpusPerRank {
				shape := core.ClusterShape{Nodes: ranks, RanksPerNode: 1, GPUsPerRank: pgpu}
				var refLevels [][]int32
				elapsedBy := map[core.Exchange]float64{}
				for _, policy := range policies {
					opts := core.DefaultOptions()
					opts.Exchange = policy
					opts.WorkAmplification = amp
					opts.CollectLevels = true
					e, _, err := buildPlan(el, shape, th, opts)
					if err != nil {
						return nil, err
					}
					results, err := runAll(e, sources)
					if err != nil {
						return nil, err
					}
					if refLevels == nil {
						for _, r := range results {
							refLevels = append(refLevels, r.Levels)
						}
					} else {
						for i, r := range results {
							for v := range r.Levels {
								if r.Levels[v] != refLevels[i][v] {
									return nil, fmt.Errorf(
										"cmp7: scale=%d ranks=%d pgpu=%d policy=%s: vertex %d level %d vs %d",
										scale, ranks, pgpu, policy, v, r.Levels[v], refLevels[i][v])
								}
							}
						}
					}
					var xs metrics.ExchangeStats
					var iters int64
					var remoteNormal, elapsed float64
					for _, r := range results {
						xs.Accumulate(r.Exchange)
						iters += int64(r.Iterations)
						remoteNormal += r.Parts.RemoteNormal
						elapsed += r.SimSeconds
					}
					if want := iters * int64(ranks) * int64(ranks-1); policy == core.ExchangeAllPairs && xs.Messages != want {
						return nil, fmt.Errorf(
							"cmp7: scale=%d ranks=%d pgpu=%d: all-pairs sent %d messages, want iterations·p·(p−1) = %d",
							scale, ranks, pgpu, xs.Messages, want)
					}
					n := float64(len(results))
					elapsedBy[policy] = elapsed
					t.Rows = append(t.Rows, []string{
						i64(int64(scale)), i64(int64(ranks)), i64(int64(pgpu)), xs.Strategy,
						f1(float64(xs.Messages) / float64(iters*int64(ranks))),
						f1(xs.NVLinkSeconds / n * 1e6), f1(xs.HiddenNVLinkSeconds / n * 1e6),
						ms(remoteNormal / n), ms(elapsed / n),
					})
				}
				best := min(elapsedBy[core.ExchangeAllPairs], elapsedBy[core.ExchangeButterfly])
				if hy := elapsedBy[core.ExchangeHybrid]; hy > best*1.05 {
					return nil, fmt.Errorf(
						"cmp7: scale=%d ranks=%d pgpu=%d: hybrid elapsed %.3f ms above best fixed %.3f ms (+%.1f%%)",
						scale, ranks, pgpu, hy*1e3, best*1e3, 100*(hy/best-1))
				}
			}
		}
	}
	return t, nil
}
