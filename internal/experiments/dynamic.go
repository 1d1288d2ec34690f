package experiments

import (
	"context"
	"fmt"

	"gcbfs/internal/core"
	"gcbfs/internal/delta"
	"gcbfs/internal/partition"
	"gcbfs/internal/wire"
)

// Cmp6Dynamic ablates the incremental-graph machinery (internal/delta,
// partition.DistributeIncremental, core.Plan.Repair) against full
// recomputation across delta sizes and kinds: for each cell a synthetic
// batch of edge mutations advances the base graph one epoch, the next
// epoch's plan is built incrementally beside the old one, and the prior
// query's result is repaired by a corrective traversal seeded only from the
// vertices the delta can move. The runner asserts, in every cell, that the
// repaired levels AND parents are bit-identical to a full recompute on the
// new epoch, and that at the smallest delta the repair is at least as fast
// as recomputing in simulated seconds — the reason dynamic BFS exists.
// Large deltas (10%) are allowed to lose: when most of the tree is voided
// the corrective wave converges on recompute work plus probe overhead.
func Cmp6Dynamic(p Params) (*Table, error) {
	scale := 12
	fracs := []float64{0.001, 0.01, 0.1}
	if p.Quick {
		scale = 10
		fracs = []float64{0.001, 0.01}
	}
	kinds := []delta.Kind{delta.KindInsert, delta.KindDelete, delta.KindMixed}
	t := &Table{
		ID:    "cmp6",
		Title: "dynamic BFS repair vs full recompute across edge deltas",
		Paper: "beyond the paper — epoch-versioned plans with delta repair over the §III partition (cf. Hanauer et al., dynamic-graph survey 2022)",
		Headers: []string{"frac", "kind", "Δedges", "invalid%", "seeds",
			"shared GPUs", "repair iters", "repair ms", "recompute ms", "speedup"},
		Notes: []string{
			"levels and parents asserted bit-identical between repair and full recompute in every cell",
			"epoch 2 is built incrementally: per-GPU subgraphs whose routed edge sequence is unchanged are shared with epoch 1",
			"invalid% counts vertices whose prior level the delta voids (orphaned tree subtrees); seeds are the inserts' endpoints whose edge shortens a path (delta.InsertSeeds)",
			"repair asserted ≥ 1× recompute in simulated seconds at the smallest delta",
		},
	}

	el := rmatGraph(scale)
	amp := ampFor(18, scale)
	th := suggestTH(el, 32)
	shape := core.ClusterShape{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2}
	cfg := shape.PartitionConfig()
	opts := core.DefaultOptions()
	opts.Exchange = core.ExchangeHybrid
	opts.Compression = wire.ModeAdaptive
	opts.WorkAmplification = amp
	opts.CollectLevels = true
	opts.CollectParents = true

	sep := partition.Separate(el, th)
	sg, err := partition.Distribute(el, sep, cfg)
	if err != nil {
		return nil, err
	}
	p1, err := core.NewPlanEpoch(sg, shape, opts, 1)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	// A well-connected root, so deltas actually intersect the BFS tree.
	source := int64(0)
	for v, d := range el.OutDegrees() {
		if d > el.OutDegrees()[source] {
			source = int64(v)
		}
	}
	prior, err := p1.Run(ctx, source, core.Overrides{})
	if err != nil {
		return nil, err
	}

	cell := 0
	for _, frac := range fracs {
		for _, kind := range kinds {
			cell++
			b := delta.Synthesize(el, frac, kind, uint64(p.seed())+uint64(cell))
			el2, err := delta.Apply(el, b)
			if err != nil {
				return nil, err
			}
			sep2 := partition.Separate(el2, th)
			sg2, shared, err := partition.DistributeIncremental(el2, sep2, cfg, sg)
			if err != nil {
				return nil, err
			}
			p2, err := core.NewPlanEpoch(sg2, shape, opts, 2)
			if err != nil {
				return nil, err
			}
			full, err := p2.Run(ctx, source, core.Overrides{})
			if err != nil {
				return nil, err
			}
			invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
			rep, err := p2.Repair(ctx, core.Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents}, invalid, b.Inserts, core.Overrides{})
			if err != nil {
				return nil, err
			}
			for v := range full.Levels {
				if rep.Levels[v] != full.Levels[v] {
					return nil, fmt.Errorf("cmp6: frac=%g kind=%s: vertex %d level %d (repair) vs %d (recompute)",
						frac, kind, v, rep.Levels[v], full.Levels[v])
				}
			}
			for v := range full.Parents {
				if rep.Parents[v] != full.Parents[v] {
					return nil, fmt.Errorf("cmp6: frac=%g kind=%s: vertex %d parent %d (repair) vs %d (recompute)",
						frac, kind, v, rep.Parents[v], full.Parents[v])
				}
			}
			nInvalid := 0
			for _, iv := range invalid {
				if iv {
					nInvalid++
				}
			}
			speedup := full.SimSeconds / rep.SimSeconds
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.3f", frac), kind.String(), i64(int64(b.Size())),
				pct(float64(nInvalid) / float64(el.N)), i64(int64(len(seeds))),
				fmt.Sprintf("%d/%d", shared, cfg.P()),
				i64(int64(rep.Iterations)), ms(rep.SimSeconds), ms(full.SimSeconds), f2(speedup),
			})
			if frac == fracs[0] && speedup < 1 {
				return nil, fmt.Errorf("cmp6: frac=%g kind=%s: repair %.3f ms slower than recompute %.3f ms (%.2f×)",
					frac, kind, rep.SimSeconds*1e3, full.SimSeconds*1e3, speedup)
			}
		}
	}
	return t, nil
}
