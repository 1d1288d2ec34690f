package core

import (
	"context"
	"testing"

	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// The pair count the model sizes messages by is the count the exchange sends:
// the all-pairs exchanger puts effPairs() messages per rank per superstep on
// the wire whatever it carries — a run's ids or, through the same exchanger, a
// sweep's records — and whatever the GPU count; and the NVLink tier that
// merges a rank's GPUs into those messages is charged exactly when there is
// more than one GPU to merge.
func TestExchangeSendsTheModelledPairs(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(10))
	th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)
	sources := pickSources(el.OutDegrees(), 8, 7)
	ctx := context.Background()
	for _, pgpu := range []int{1, 2, 4} {
		shape := ClusterShape{Nodes: 3, RanksPerNode: 1, GPUsPerRank: pgpu}
		opts := DefaultOptions()
		opts.Compression = wire.ModeAdaptive
		p := buildPlan(t, el, shape, th, opts)
		prank := int64(shape.Ranks())

		run := p.acquire(p.base)
		pairs := run.effPairs()
		p.release(run)
		res := runExchange(t, p, sources[0])
		if want := int64(res.Iterations) * prank * pairs; res.Exchange.Messages != want {
			t.Fatalf("%s run: %d messages, want iterations·p·effPairs = %d·%d·%d = %d",
				shape, res.Exchange.Messages, res.Iterations, prank, pairs, want)
		}
		if charged := res.Exchange.NVLinkSeconds > 0; charged != (pgpu > 1) {
			t.Fatalf("%s run: NVLink tier %g s", shape, res.Exchange.NVLinkSeconds)
		}
		// A single round has no earlier transfer to hide anything under.
		if x := res.Exchange; x.HiddenCodecSeconds != 0 || x.HiddenNVLinkSeconds != 0 || x.PipelineStalls != 0 {
			t.Fatalf("%s run: all-pairs hid %g s codec, %g s NVLink with %d stalls",
				shape, x.HiddenCodecSeconds, x.HiddenNVLinkSeconds, x.PipelineStalls)
		}

		sweep := p.newSweepSession(p.base, sources)
		pairs = sweep.effPairs()
		swept, err := sweep.run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(len(sources))
		iters := swept[0].Exchange.AllPairsIterations
		if want := iters * prank * pairs / k; swept[0].Exchange.Messages != want {
			t.Fatalf("%s sweep: %d messages per query, want iterations·p·effPairs/K = %d·%d·%d/%d = %d",
				shape, swept[0].Exchange.Messages, iters, prank, pairs, k, want)
		}
	}
}
