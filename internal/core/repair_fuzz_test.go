package core

import (
	"context"
	"fmt"
	"testing"

	"gcbfs/internal/delta"
	"gcbfs/internal/graph"
	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// The oracle's draw tables: a fuzz input is one index into each (modulo its
// length), a generator seed and a source rank.
var (
	chainShapes = []ClusterShape{
		{1, 1, 1}, {1, 1, 2}, {1, 1, 4}, {2, 1, 1}, {3, 1, 2}, {1, 2, 2}, {5, 1, 1}, {2, 2, 2}, {3, 1, 4},
	}
	chainExchanges = []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid}
	chainModes     = []wire.Mode{wire.ModeOff, wire.ModeAdaptive, wire.ModeRaw, wire.ModeDelta, wire.ModeBitmap}
	// Thresholds: every vertex with an edge a delegate, the 4n/p rule (-1),
	// two fixed ones that straddle an RMAT graph's median degree, and none.
	chainThresholds = []int64{0, -1, 8, 32, 1 << 40}
	chainKinds      = []delta.Kind{delta.KindInsert, delta.KindDelete, delta.KindMixed}
	chainFracs      = []float64{0.001, 0.005, 0.02, 0.05, 0.2}
)

const chainEpochs = 4

// FuzzRepairChain is the drawn oracle over epoch chains: scale 8–12 × cluster
// shape × exchange × compression × threshold × delta kind × delta size, then
// chainEpochs deltas in a row, each repaired result the next repair's prior —
// the way a MutableService's caller feeds them back, and the one way a patched
// tree's error could compound where a resolved one's cannot. Every link must
// equal, entry for entry in levels and parents, Plan.Run on that epoch and the
// serial min-id oracle, on the patching path and with the full resolution
// forced over the same copied arrays.
func FuzzRepairChain(f *testing.F) {
	f.Fuzz(func(t *testing.T, scale, shape, exchange, mode, threshold, kind, frac uint8, seed uint64) {
		ctx := context.Background()
		params := rmat.DefaultParams(8 + int(scale%5))
		params.EdgeFactor, params.Seed = 8, seed
		el := rmat.Generate(params)
		sh := chainShapes[int(shape)%len(chainShapes)]
		cfg := sh.PartitionConfig()
		opts := repairOptions()
		opts.Exchange = chainExchanges[int(exchange)%len(chainExchanges)]
		opts.Compression = chainModes[int(mode)%len(chainModes)]
		th := chainThresholds[int(threshold)%len(chainThresholds)]
		if th < 0 {
			th = partition.SuggestThreshold(el.OutDegrees(), 4*el.N/int64(sh.P()))
		}
		k := chainKinds[int(kind)%len(chainKinds)]
		fr := chainFracs[int(frac)%len(chainFracs)]
		source := pickSources(el.OutDegrees(), 1, int64(seed%1024))[0]
		label := fmt.Sprintf("scale %d, %s, %s, %s, th %d, %s %g, seed %d, source %d",
			8+scale%5, sh, opts.Exchange, opts.Compression, th, k, fr, seed, source)

		sg, err := partition.Distribute(el, partition.Separate(el, th), cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := NewPlanEpoch(sg, sh, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		prior, err := plan.Run(ctx, source, Overrides{})
		if err != nil {
			t.Fatal(err)
		}
		for epoch := uint64(2); epoch < 2+chainEpochs; epoch++ {
			b := delta.Synthesize(el, fr, k, seed+epoch)
			el2, err := delta.Apply(el, b)
			if err != nil {
				t.Fatal(err)
			}
			sg2, _, err := partition.DistributeIncremental(el2, partition.Separate(el2, th), cfg, sg)
			if err != nil {
				t.Fatal(err)
			}
			plan2, err := NewPlanEpoch(sg2, sh, opts, epoch)
			if err != nil {
				t.Fatal(err)
			}
			full, err := plan2.Run(ctx, source, Overrides{})
			if err != nil {
				t.Fatal(err)
			}
			requireMinParents(t, label, graph.BuildCSR(el2), source, full.Levels, full.Parents)

			invalid, seeds := delta.Affected(prior.Levels, prior.Parents, b)
			patched, err := plan2.Repair(ctx, Prior{Source: source, Levels: prior.Levels, Parents: prior.Parents},
				invalid, b.Inserts, Overrides{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameTree(t, fmt.Sprintf("%s, epoch %d, Repair", label, epoch), patched, full)
			forced, err := plan2.repair(ctx, opts, &repairIn{source: source, levels: prior.Levels, parents: prior.Parents,
				invalid: invalid, seeds: seeds, full: true})
			if err != nil {
				t.Fatal(err)
			}
			requireSameTree(t, fmt.Sprintf("%s, epoch %d, full resolution forced", label, epoch), forced, full)
			el, sg, prior = el2, sg2, patched
		}
	})
}
