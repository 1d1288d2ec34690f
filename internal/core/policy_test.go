package core

import (
	"math"
	"testing"

	"gcbfs/internal/rmat"
	"gcbfs/internal/simnet"
	"gcbfs/internal/wire"
)

// buildPolicy constructs a session (without running it) and returns its
// exchange policy for direct cost-model inspection.
func buildPolicy(t *testing.T, shape ClusterShape, opts Options) *exchangePolicy {
	t.Helper()
	el := rmat.Generate(rmat.DefaultParams(10))
	e := buildPlan(t, el, shape, 16, opts)
	s := e.acquire(e.base)
	defer e.release(s)
	return s.newExchangePolicy()
}

// apCost/bfCost unwrap the remote-normal component for the single-value
// comparisons below — every shape here has one GPU per rank, so the
// hierarchical NVLink component is zero and this is the full cost.
func apCost(pol *exchangePolicy, vol int64) float64 {
	s, _ := pol.allPairsCost(vol, 1)
	return s
}

func bfCost(pol *exchangePolicy, vol int64) float64 {
	s, _ := pol.butterflyCost(vol, 1)
	return s
}

// hopSum is the sequential-hop reference: every hop charged end to end.
func hopSum(spec simnet.Spec, hops []int64, msgCap int64) float64 {
	var t float64
	for _, b := range hops {
		t += spec.ButterflyHop(b, msgCap)
	}
	return t
}

// TestPolicyCostMatchesSimnet: the cost model must be the α/β form realized
// by the exact simnet curves the timing model charges — all-pairs cost is
// PointToPoint over the effective message size, butterfly cost is the sum of
// ButterflyHop over the predicted hop profile (cleanup hops included on
// non-power-of-two rank counts) — with the codec off and one GPU per rank the
// pipeline has nothing to overlap.
func TestPolicyCostMatchesSimnet(t *testing.T) {
	spec := simnet.Ray()
	for _, tc := range []struct {
		shape ClusterShape
		hops  int // hypercube hops + cleanup pair
	}{
		{ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 1}, 3}, // p=8
		{ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 1}, 4}, // p=6: pre + 2 + post
	} {
		pol := buildPolicy(t, tc.shape, DefaultOptions())
		for _, vol := range []int64{0, 512, 64 << 10, 8 << 20} {
			hops := pol.butterflyHops(vol)
			if len(hops) != tc.hops {
				t.Fatalf("shape %s: %d predicted hops, want %d", tc.shape, len(hops), tc.hops)
			}
			wantBF := hopSum(spec, hops, pol.e.opts.MessageBytes)
			if got := bfCost(pol, vol); math.Abs(got-wantBF) > 1e-12 {
				t.Fatalf("shape %s vol %d: butterfly cost %g, want simnet %g", tc.shape, vol, got, wantBF)
			}
			wantAP := spec.PointToPoint(vol, pol.e.effMessageBytes(vol))
			if got := apCost(pol, vol); math.Abs(got-wantAP) > 1e-12 {
				t.Fatalf("shape %s vol %d: all-pairs cost %g, want simnet %g", tc.shape, vol, got, wantAP)
			}
		}
	}
}

// TestPolicyCrossover: the decision must flip with volume the way the
// ablations show — at many ranks the butterfly wins the latency-bound
// (small-volume) regime, all-pairs wins the bandwidth-bound one, because
// the butterfly relays ~log2(p)/2× the volume.
func TestPolicyCrossover(t *testing.T) {
	shape := ClusterShape{Nodes: 16, RanksPerNode: 2, GPUsPerRank: 1} // 32 ranks
	opts := DefaultOptions()
	opts.Exchange = ExchangeHybrid
	pol := buildPolicy(t, shape, opts)

	small, large := int64(4<<10), int64(64<<20)
	if ap, bf := apCost(pol, small), bfCost(pol, small); bf >= ap {
		t.Fatalf("small volume: butterfly %g not below all-pairs %g (latency-bound regime)", bf, ap)
	}
	if ap, bf := apCost(pol, large), bfCost(pol, large); ap >= bf {
		t.Fatalf("large volume: all-pairs %g not below butterfly %g (bandwidth-bound regime)", ap, bf)
	}
	// And choose follows the costs monotonically: there is one crossover.
	prev := ExchangeButterfly
	flips := 0
	for vol := small; vol <= large; vol *= 2 {
		s := ExchangeButterfly
		if apCost(pol, vol) < bfCost(pol, vol) {
			s = ExchangeAllPairs
		}
		if s != prev {
			flips++
			prev = s
		}
	}
	if flips != 1 {
		t.Fatalf("expected exactly one strategy crossover over the volume sweep, saw %d", flips)
	}
}

// TestPolicyFixedConfigurations: fixed strategies never switch, and the
// prediction is still produced for the configured side.
func TestPolicyFixedConfigurations(t *testing.T) {
	shape := ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 1}
	for _, cfg := range []Exchange{ExchangeAllPairs, ExchangeButterfly} {
		opts := DefaultOptions()
		opts.Exchange = cfg
		pol := buildPolicy(t, shape, opts)
		for _, vol := range []int64{0, 1 << 10, 32 << 20} {
			// Feed the estimator measured feedback so predictVolume ≈ vol.
			got, predicted := pol.choose(1000, 0, 1000, vol*int64(pol.prank), newPolicyFeedback())
			if got != cfg {
				t.Fatalf("configured %v chose %v", cfg, got)
			}
			if predicted < 0 {
				t.Fatalf("negative predicted time %g", predicted)
			}
		}
	}
}

// TestPolicyOverlapCostMatchesSimnet: with a codec active, the butterfly
// cost must be exactly the simnet pipeline model applied to the predicted
// hop and codec-stage profiles; the all-pairs cost adds the single-round
// encode+decode compute to the point-to-point curve. This mirrors
// TestPolicyCostMatchesSimnet for the overlap-aware model.
func TestPolicyOverlapCostMatchesSimnet(t *testing.T) {
	spec := simnet.Ray()
	for _, shape := range []ClusterShape{
		{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 1}, // p=8
		{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 1}, // p=6: cleanup hops
	} {
		opts := DefaultOptions()
		opts.Compression = wire.ModeAdaptive
		pol := buildPolicy(t, shape, opts)
		gpu := pol.e.opts.GPU
		for _, vol := range []int64{512, 64 << 10, 8 << 20} {
			hops := pol.butterflyHops(vol)
			stages, pre := pol.butterflyCodec(hops)
			want := spec.PipelinedExchange(simnet.ExchangeSchedule{
				HopBytes: hops, HopCodec: stages, PreCodec: pre, MsgCap: pol.e.opts.MessageBytes,
			}).Total
			if got := bfCost(pol, vol); math.Abs(got-want) > 1e-12 {
				t.Fatalf("shape %s vol %d: butterfly cost %g, want %g", shape, vol, got, want)
			}
			wantAP := spec.PointToPoint(vol, pol.e.effMessageBytes(vol)) + gpu.CodecTime(2*vol)
			if got := apCost(pol, vol); math.Abs(got-wantAP) > 1e-12 {
				t.Fatalf("shape %s vol %d: all-pairs cost %g, want %g", shape, vol, got, wantAP)
			}
		}
	}
}

// TestPolicyPipelineMovesCrossover: against the sequential reference — every
// hop and every codec stage charged end to end — the pipelined butterfly cost
// is cheaper wherever codec stages exist, never dearer, so the
// all-pairs/butterfly crossover volume sits at or above the sequential one:
// the butterfly stays preferred longer.
func TestPolicyPipelineMovesCrossover(t *testing.T) {
	shape := ClusterShape{Nodes: 16, RanksPerNode: 2, GPUsPerRank: 1} // 32 ranks
	opts := DefaultOptions()
	opts.Compression = wire.ModeAdaptive
	opts.Exchange = ExchangeHybrid
	pol := buildPolicy(t, shape, opts)
	seqCost := func(vol int64) float64 {
		hops := pol.butterflyHops(vol)
		stages, pre := pol.butterflyCodec(hops)
		c := hopSum(pol.e.opts.Net, hops, pol.e.opts.MessageBytes) + pre
		for _, st := range stages {
			c += st
		}
		return c
	}
	crossover := func(bf func(int64) float64) int64 {
		for vol := int64(4 << 10); vol <= 64<<20; vol *= 2 {
			if apCost(pol, vol) < bf(vol) {
				return vol
			}
		}
		return 64 << 20
	}
	pipeCost := func(vol int64) float64 { return bfCost(pol, vol) }
	for vol := int64(4 << 10); vol <= 64<<20; vol *= 2 {
		p, s := pipeCost(vol), seqCost(vol)
		if p > s {
			t.Fatalf("vol %d: pipelined butterfly cost %g above sequential %g", vol, p, s)
		}
		if vol >= 64<<10 && p >= s {
			t.Fatalf("vol %d: pipelined butterfly cost %g not strictly below sequential %g "+
				"(codec stages are nonzero here)", vol, p, s)
		}
	}
	if cp, cs := crossover(pipeCost), crossover(seqCost); cp < cs {
		t.Fatalf("pipelining moved the crossover down: %d vs %d", cp, cs)
	}
}

// TestPolicySkewScalesPrediction: a measured skew ratio scales the volume
// estimate (the timing model charges the max-reduced rank, not the mean),
// so both cost predictions rise with skew.
func TestPolicySkewScalesPrediction(t *testing.T) {
	opts := DefaultOptions()
	opts.Exchange = ExchangeHybrid
	pol := buildPolicy(t, ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 1}, opts)
	balanced := pol.predictVolume(1000, 0, 1000, 8<<20, 1)
	skewed := pol.predictVolume(1000, 0, 1000, 8<<20, 3)
	if skewed != 3*balanced {
		t.Fatalf("skew 3 predicted %d, want 3× balanced %d", skewed, balanced)
	}
	if apCost(pol, skewed) <= apCost(pol, balanced) ||
		bfCost(pol, skewed) <= bfCost(pol, balanced) {
		t.Fatal("skewed volume did not raise the cost predictions")
	}
	// Skew can flip the decision where the mean-volume estimate sits just
	// below the crossover: find such a point and verify the flip.
	fb := newPolicyFeedback()
	for mean := int64(4 << 10); mean <= 64<<20; mean *= 2 {
		sBal, _ := pol.choose(1000, 0, 1000, mean*int64(pol.prank), fb)
		high := fb
		high.skew = 8
		sSkew, _ := pol.choose(1000, 0, 1000, mean*int64(pol.prank), high)
		if sBal == ExchangeButterfly && sSkew == ExchangeAllPairs {
			return // skew priced the max rank into the decision
		}
	}
	t.Fatal("skew never flipped a near-crossover decision toward all-pairs")
}

// TestPolicyFeedbackCalibration: the per-strategy EWMA must move toward the
// observed actual/predicted ratio, stay within its clamps, and flip a
// near-crossover decision against a strategy whose predictions proved
// optimistic.
func TestPolicyFeedbackCalibration(t *testing.T) {
	fb := newPolicyFeedback()
	fb.observe(ExchangeButterfly, 1e-3, 2e-3, 0, 0, 0) // butterfly ran 2× slower than predicted
	if fb.calib[ExchangeButterfly] <= 1 || fb.calib[ExchangeAllPairs] != 1 {
		t.Fatalf("calibration after slow butterfly: %+v", fb.calib)
	}
	for i := 0; i < 100; i++ {
		fb.observe(ExchangeAllPairs, 1e-3, 1e-9, 0, 0, 0) // absurd ratio must stay clamped
	}
	if c := fb.calib[ExchangeAllPairs]; c < calibMin-1e-12 || c > 1 {
		t.Fatalf("all-pairs calibration %g escaped [%g, 1]", c, calibMin)
	}
	// Zero-valued observations must not move the EWMA.
	before := fb.calib
	fb.observe(ExchangeButterfly, 0, 1e-3, 0, 0, 0)
	if fb.calib != before {
		t.Fatal("zero predicted time moved the calibration")
	}

	opts := DefaultOptions()
	opts.Exchange = ExchangeHybrid
	pol := buildPolicy(t, ClusterShape{Nodes: 16, RanksPerNode: 2, GPUsPerRank: 1}, opts)
	neutral := newPolicyFeedback()
	slowBF := newPolicyFeedback()
	slowBF.calib[ExchangeButterfly] = 4
	flipped := false
	for mean := int64(4 << 10); mean <= 64<<20; mean *= 2 {
		s0, _ := pol.choose(1000, 0, 1000, mean*int64(pol.prank), neutral)
		s1, _ := pol.choose(1000, 0, 1000, mean*int64(pol.prank), slowBF)
		if s0 == ExchangeButterfly && s1 == ExchangeAllPairs {
			flipped = true
		}
		if s0 == ExchangeAllPairs && s1 == ExchangeButterfly {
			t.Fatal("penalizing the butterfly made it win a cell it was losing")
		}
	}
	if !flipped {
		t.Fatal("a 4× butterfly calibration never flipped a near-crossover decision")
	}
}

// TestPolicyDeterministicInputs: identical globally known inputs must yield
// the identical decision — the property that lets every rank decide without
// an extra collective.
func TestPolicyDeterministicInputs(t *testing.T) {
	opts := DefaultOptions()
	opts.Exchange = ExchangeHybrid
	pol := buildPolicy(t, ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 2}, opts)
	for _, in := range [][3]int64{{1, 0, 0}, {500, 100, 1 << 20}, {100000, 90000, 32 << 20}} {
		s1, p1 := pol.choose(in[0], 0, in[1], in[2], newPolicyFeedback())
		s2, p2 := pol.choose(in[0], 0, in[1], in[2], newPolicyFeedback())
		if s1 != s2 || p1 != p2 {
			t.Fatalf("inputs %v: decision not deterministic (%v/%g vs %v/%g)", in, s1, p1, s2, p2)
		}
	}
}
