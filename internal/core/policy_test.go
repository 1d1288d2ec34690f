package core

import (
	"math"
	"testing"

	"gcbfs/internal/rmat"
	"gcbfs/internal/simnet"
	"gcbfs/internal/wire"
)

// policyRig is a session's exchange policy (built without running it) beside
// rank 0's lanes, whose strategy instances price its predictions.
type policyRig struct {
	*exchangePolicy
	l lanes
}

func buildPolicy(t *testing.T, shape ClusterShape, opts Options) policyRig {
	t.Helper()
	el := rmat.Generate(rmat.DefaultParams(10))
	e := buildPlan(t, el, shape, 16, opts)
	s := e.acquire(e.base)
	defer e.release(s)
	pol := s.newExchangePolicy()
	sc := &rankScratch{exchangeScratch: newExchangeScratch(shape.Ranks(), shape.GPUsPerRank, 0)}
	sc.rx.bind(pol.e, 0, &sc.exchangeScratch, nil)
	return policyRig{pol, &sourceLanes{sc: sc}}
}

// ex is the rig's instance of strategy s.
func (r policyRig) ex(s Exchange) exchanger { return r.l.exchanger(s) }

// choose is the policy's decision priced on the rig's instances, handed the
// lanes' method value the way the superstep loop hands it.
func (r policyRig) choose(inputNormals, inputDelegates, prevNormals, prevOriginated int64, fb policyFeedback) (Exchange, float64) {
	return r.exchangePolicy.choose(inputNormals, inputDelegates, prevNormals, prevOriginated, fb, r.l.exchanger)
}

// cost is strategy s's predicted remote-normal seconds and NVLink-tier
// exposure for vol bytes per rank at wire ratio 1.
func (r policyRig) cost(s Exchange, vol int64) (sec, nv float64) {
	return price(r.ex(s), vol, 1)
}

// apCost/bfCost unwrap the remote-normal component for the single-value
// comparisons below — every shape they see has one GPU per rank, so the
// hierarchical NVLink component is zero and this is the full cost.
func apCost(pol policyRig, vol int64) float64 {
	s, _ := pol.cost(ExchangeAllPairs, vol)
	return s
}

func bfCost(pol policyRig, vol int64) float64 {
	s, _ := pol.cost(ExchangeButterfly, vol)
	return s
}

// refHops is the butterfly's predicted hop profile written from the
// hypercube geometry alone: each of the log2(q) hops relays vol·p/(2(p−1)),
// and on a non-power-of-two rank count a pre and a post cleanup hop move vol.
func refHops(prank int, vol int64) []int64 {
	_, rem, nhops := hypercubeGeometry(prank)
	hopVol := int64(float64(vol) * float64(prank) / (2 * float64(prank-1)))
	var hops []int64
	if rem > 0 {
		hops = append(hops, vol)
	}
	for range nhops {
		hops = append(hops, hopVol)
	}
	if rem > 0 {
		hops = append(hops, vol)
	}
	return hops
}

// refCodec is the codec schedule the reference charges for a hop profile:
// hop k's stage codes hops k and k+1, the pre stage hop 0 — zero with the
// codec off.
func refCodec(gpuCodec func(int64) float64, on bool, hops []int64) (stages []float64, pre float64) {
	stages = make([]float64, len(hops))
	if !on || len(hops) == 0 {
		return stages, 0
	}
	for k := range hops {
		raw := hops[k]
		if k+1 < len(hops) {
			raw += hops[k+1]
		}
		stages[k] = gpuCodec(raw)
	}
	return stages, gpuCodec(hops[0])
}

// refNVLink is the NVLink-tier exposure the hierarchical exchange adds to
// each side, written from simnet alone. All-pairs is one round, so its whole
// tier is exposed: the intra-rank aggregation plus a send and a receive
// staging copy of the w wire bytes. The butterfly's is the three-resource
// pipelined total minus the two-resource one, its NVLink stages one staging
// charge per direction spread over the hops by volume (received = sent per
// hop), the pre stage the aggregation plus the first send's share.
func refNVLink(spec simnet.Spec, pol policyRig, vol, w int64, sched simnet.ExchangeSchedule) (ap, bf float64) {
	pgpu := pol.e.shape.GPUsPerRank
	agg := spec.LocalExchange(pol.e.aggregationBytes(vol), pgpu)
	ap = agg + 2*spec.Staging(w)
	hops := sched.HopBytes
	var tot int64
	for _, h := range hops {
		tot += h
	}
	share := func(h int64) float64 {
		if tot <= 0 || h <= 0 {
			return 0
		}
		return spec.Staging(tot) * float64(h) / float64(tot)
	}
	nv := make([]float64, len(hops))
	for k := range hops {
		nv[k] = share(hops[k])
		if k+1 < len(hops) {
			nv[k] += share(hops[k+1])
		}
	}
	pre := agg
	if len(hops) > 0 {
		pre += share(hops[0])
	}
	wc := spec.PipelinedExchange(sched).Total
	sched.HopNVLink, sched.PreNVLink = nv, pre
	return ap, spec.PipelinedExchange(sched).Total - wc
}

// hopSum is the sequential-hop reference: every hop charged end to end.
func hopSum(spec simnet.Spec, hops []int64, msgCap int64) float64 {
	var t float64
	for _, b := range hops {
		t += spec.ButterflyHop(b, msgCap)
	}
	return t
}

// near reports whether got is within a relative 1e-12 of want (an absolute
// 1e-12 near zero).
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
}

// policyShapes are the shapes the cost references are checked at: a power of
// two and a non-power-of-two rank count (cleanup hops), each at one GPU per
// rank and at two (the hierarchical exchange and its NVLink tier), with the
// butterfly's hop count at each.
var policyShapes = []struct {
	shape ClusterShape
	hops  int
}{
	{ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 1}, 3}, // p=8
	{ClusterShape{Nodes: 3, RanksPerNode: 2, GPUsPerRank: 1}, 4}, // p=6: pre + 2 + post
	{ClusterShape{Nodes: 4, RanksPerNode: 2, GPUsPerRank: 2}, 3}, // p=8, hierarchical
	{ClusterShape{Nodes: 5, RanksPerNode: 1, GPUsPerRank: 2}, 4}, // p=5: pre + 2 + post, hierarchical
}

// checkPolicyCosts holds both strategies' prices at shape to the simnet
// references: all-pairs is PointToPoint over the effective message size plus,
// with a codec active, the encode+decode of the volume; the butterfly is the
// simnet pipeline over the predicted hop and codec-stage profiles — with the
// codec off, the plain sum of ButterflyHop, the pipeline having nothing to
// overlap. The NVLink exposure is refNVLink's at two GPUs per rank and zero at
// one.
func checkPolicyCosts(t *testing.T, spec simnet.Spec, shape ClusterShape, nhops int, mode wire.Mode, vols []int64) {
	t.Helper()
	opts := DefaultOptions()
	opts.Compression = mode
	pol := buildPolicy(t, shape, opts)
	gpu := pol.e.opts.GPU
	msgCap := pol.e.opts.MessageBytes
	on := mode != wire.ModeOff
	for _, vol := range vols {
		hops := refHops(shape.Ranks(), vol)
		if len(hops) != nhops {
			t.Fatalf("shape %s: reference has %d hops, want %d", shape, len(hops), nhops)
		}
		if got := len(pol.ex(ExchangeButterfly).predict(vol, 1).hopBytes); got != nhops {
			t.Fatalf("shape %s: %d predicted hops, want %d", shape, got, nhops)
		}
		stages, pre := refCodec(gpu.CodecTime, on, hops)
		sched := simnet.ExchangeSchedule{HopBytes: hops, HopCodec: stages, PreCodec: pre, MsgCap: msgCap}
		wantBF := spec.PipelinedExchange(sched).Total
		if !on {
			wantBF = hopSum(spec, hops, msgCap)
		}
		w := vol
		if pairs := pol.e.effPairs(); w > 0 && w < pairs*pairs {
			w = pairs * pairs
		}
		wantAP := spec.PointToPoint(w, pol.e.effMessageBytes(w))
		if on {
			wantAP += gpu.CodecTime(2 * vol)
		}
		var wantAPNV, wantBFNV float64
		if shape.GPUsPerRank > 1 {
			wantAPNV, wantBFNV = refNVLink(spec, pol, vol, w, sched)
		}
		apS, apNV := pol.cost(ExchangeAllPairs, vol)
		bfS, bfNV := pol.cost(ExchangeButterfly, vol)
		for _, c := range []struct {
			what      string
			got, want float64
		}{
			{"butterfly cost", bfS, wantBF},
			{"butterfly NVLink exposure", bfNV, wantBFNV},
			{"all-pairs cost", apS, wantAP},
			{"all-pairs NVLink exposure", apNV, wantAPNV},
		} {
			if !near(c.got, c.want) {
				t.Fatalf("shape %s codec %v vol %d: %s %g, want simnet %g", shape, mode, vol, c.what, c.got, c.want)
			}
		}
		if shape.GPUsPerRank > 1 && vol > 0 && (apNV <= 0 || bfNV <= 0) {
			t.Fatalf("shape %s vol %d: hierarchical exposure all-pairs %g butterfly %g, want both positive", shape, vol, apNV, bfNV)
		}
	}
}

// TestPolicyCostMatchesSimnet: with the codec off, the prices are the α/β
// form realized by the exact simnet curves the timing model charges.
func TestPolicyCostMatchesSimnet(t *testing.T) {
	for _, ps := range policyShapes {
		checkPolicyCosts(t, simnet.Ray(), ps.shape, ps.hops, wire.ModeOff, []int64{0, 512, 64 << 10, 8 << 20})
	}
}

// TestPolicyOverlapCostMatchesSimnet: with a codec active, the butterfly
// price is exactly the simnet pipeline model applied to the predicted hop and
// codec-stage profiles, and the all-pairs price adds the single-round
// encode+decode compute to the point-to-point curve.
func TestPolicyOverlapCostMatchesSimnet(t *testing.T) {
	for _, ps := range policyShapes {
		checkPolicyCosts(t, simnet.Ray(), ps.shape, ps.hops, wire.ModeAdaptive, []int64{512, 64 << 10, 8 << 20})
	}
}

// TestPolicyChooseDoesNotAllocate: the BSP loops price every superstep, so
// after one warm-up call the pricing allocates nothing, whatever the
// configured strategy and codec. Each measured call takes a fresh
// l.exchanger method value, as the superstep loop does.
func TestPolicyChooseDoesNotAllocate(t *testing.T) {
	shape := ClusterShape{Nodes: 3, RanksPerNode: 1, GPUsPerRank: 2}
	for _, cfg := range []Exchange{ExchangeAllPairs, ExchangeButterfly, ExchangeHybrid} {
		for _, mode := range []wire.Mode{wire.ModeOff, wire.ModeAdaptive} {
			opts := DefaultOptions()
			opts.Exchange, opts.Compression = cfg, mode
			pol := buildPolicy(t, shape, opts)
			fb := newPolicyFeedback()
			fb.wireRatio = 0.5
			pol.choose(1000, 10, 800, 1<<20, fb)
			if n := testing.AllocsPerRun(20, func() { pol.choose(1000, 10, 800, 1<<20, fb) }); n != 0 {
				t.Fatalf("%v codec %v: choose allocates %g times per call", cfg, mode, n)
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
		hops := refHops(pol.prank, vol)
		stages, pre := refCodec(pol.e.opts.GPU.CodecTime, true, hops)
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
