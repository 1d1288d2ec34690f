package core

import (
	"math"
	"testing"

	"gcbfs/internal/partition"
	"gcbfs/internal/rmat"
	"gcbfs/internal/wire"
)

// TestPipelineTimingInvariants pins the accounting identities of the
// butterfly's pipelined hops: with a codec active some of its time is hidden,
// never more than the total; the per-iteration hidden/exposed split is
// non-negative and sums to the run's codec total; and with no codec and no
// NVLink stage (one GPU per rank) nothing is hidden and nothing stalls.
func TestPipelineTimingInvariants(t *testing.T) {
	el := rmat.Generate(rmat.DefaultParams(12))
	th := partition.SuggestThreshold(el.OutDegrees(), el.N/8)
	src := pickSources(el.OutDegrees(), 1, 17)[0]
	for _, shape := range []ClusterShape{
		{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 1}, // 8 ranks
		{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 1}, // 6 ranks: cleanup hops
	} {
		opts := DefaultOptions()
		opts.Exchange = ExchangeButterfly
		opts.WorkAmplification = 1 << 8
		off := runExchange(t, buildPlan(t, el, shape, th, opts), src)
		if off.Exchange.HiddenCodecSeconds != 0 || off.Exchange.PipelineStalls != 0 {
			t.Fatalf("shape %s: codec off, one GPU per rank: hid %g s with %d stalls",
				shape, off.Exchange.HiddenCodecSeconds, off.Exchange.PipelineStalls)
		}
		opts.Compression = wire.ModeAdaptive
		rp := runExchange(t, buildPlan(t, el, shape, th, opts), src)

		hidden := rp.Exchange.HiddenCodecSeconds
		if hidden <= 0 {
			t.Fatalf("shape %s: no codec time hidden", shape)
		}
		if hidden > rp.Wire.CodecSeconds+1e-12 {
			t.Fatalf("shape %s: hidden %g s above total codec %g s — overlap created time",
				shape, hidden, rp.Wire.CodecSeconds)
		}
		var split, hiddenSum float64
		for i, it := range rp.PerIteration {
			if it.CodecHidden < 0 || it.CodecExposed < 0 {
				t.Fatalf("shape %s it=%d: negative codec split %g/%g",
					shape, i, it.CodecHidden, it.CodecExposed)
			}
			split += it.CodecHidden + it.CodecExposed
			hiddenSum += it.CodecHidden
		}
		if math.Abs(split-rp.Wire.CodecSeconds) > 1e-12 || math.Abs(hiddenSum-hidden) > 1e-12 {
			t.Fatalf("shape %s: per-iteration split sums to %g s (%g hidden), run reports %g s (%g hidden)",
				shape, split, hiddenSum, rp.Wire.CodecSeconds, hidden)
		}
	}
}
