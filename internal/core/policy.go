package core

// This file is the per-iteration exchange policy layer. The paper picks
// push vs pull each iteration from the known frontier size (§IV-B); the
// hybrid exchange policy applies the same idea to the exchange topology:
// all-pairs wins bandwidth-bound iterations (the butterfly relays roughly
// log2(p)/2× the volume) while the butterfly wins message-count-bound ones
// (p−1 latencies vs log2(p) plus cleanup). Every rank evaluates the same
// cost model over the same globally known inputs — the frontier sizes and
// byte volumes reduced by the previous iteration's termination allreduce —
// so the per-iteration decision is identical on all ranks without any
// extra collective.
//
// The cost model is the α/β form unit-tested against simnet's timing:
//
//	all-pairs:  ≈ pairs·α + V·β(msg) + codec(2V)     (p−1 sends per rank)
//	butterfly:  ≈ hops·α + relay·V·β(msg') + codec   (log2(q) hops + cleanup)
//
// realized by running the predicted per-rank volume V through the exact
// simnet curves the timing model charges (PointToPoint and
// PipelinedExchange), with the codec compute each side would pay at simgpu
// CodecRate. The butterfly's predicted codec stages overlap its predicted
// transfers exactly as the timing model overlaps the measured ones.
//
// Two feedback signals, both derived from globally reduced quantities so
// every rank sees identical values, tighten the estimate per session:
//
//   - skew: the timing model charges the max-reduced rank while the volume
//     estimate is a mean; the previous iteration's reduced per-hop maxima
//     over the mean per-rank volume prices partition skew into both costs.
//   - calibration: a per-strategy EWMA of actual vs predicted remote-normal
//     seconds scales subsequent predictions, absorbing systematic model
//     bias near the crossover.

import (
	"gcbfs/internal/simnet"
	"gcbfs/internal/wire"
)

// policyFeedback carries the measured feedback the BSP loop threads into
// each iteration's decision. Every rank maintains its own copy, updated
// from globally reduced values only, so the copies are bit-identical and
// the decision needs no extra collective. The zero feedback is invalid;
// use newPolicyFeedback.
type policyFeedback struct {
	// skew is the previous iteration's reduced-maximum per-rank exchange
	// volume over the mean per-rank volume, ≥ 1 (1 = perfectly balanced).
	skew float64
	// wireRatio is the measured wire-bytes over fixed-width-bytes ratio of
	// the previous volume-carrying iteration: the volume estimate is
	// raw-based, but the simnet curves see post-codec bytes. 1 with the
	// codec off (wire equals raw there); below 1 when compression bites.
	// Without it, a 2× codec saving inflates both cost predictions — which
	// flips near-crossover decisions toward all-pairs, whose
	// latency-saturated cost barely notices the inflation, and away from
	// the butterfly, whose relayed volume scales with it.
	wireRatio float64
	// calib scales each strategy's predicted cost by its session EWMA of
	// actual/predicted remote-normal time (indexed by Exchange; 1 until
	// the strategy has run).
	calib [2]float64
}

func newPolicyFeedback() policyFeedback {
	return policyFeedback{skew: 1, wireRatio: 1, calib: [2]float64{1, 1}}
}

const (
	// calibEWMA is the feedback smoothing factor: small enough that one
	// outlier iteration cannot swing the next decision, large enough to
	// converge within a BFS's handful of volume-carrying iterations.
	calibEWMA = 0.3
	// calibMin/calibMax bound the correction so a degenerate iteration
	// (near-zero predicted time) cannot poison the session.
	calibMin, calibMax = 0.25, 4.0
	// skewMax bounds the skew ratio for the same reason.
	skewMax = 16.0
	// skewGateRawBytes gates the skew and wire-ratio updates on iterations
	// whose global fixed-width exchange volume averages at least this many
	// raw bytes per rank. Below it the wire bytes are dominated by
	// per-message framing and synchronizing empty hops, so the ratios
	// measure framing noise, not partition skew or codec effectiveness —
	// and in that latency regime the volume estimate hardly matters anyway.
	skewGateRawBytes = 256
	// wireRatioMin/Max bound the measured compression ratio (framing can
	// push it slightly above 1; a pathological block should not predict a
	// near-free wire).
	wireRatioMin, wireRatioMax = 0.1, 1.5
)

// observe folds one executed iteration's measurement into the feedback:
// the strategy that ran, its raw (uncalibrated) predicted remote-normal
// seconds, the actual exchange remote-normal seconds from the reduced
// timing, the reduced-max vs mean per-rank volume, and the measured
// wire/raw byte ratio.
func (fb *policyFeedback) observe(strategy Exchange, rawPredicted, actual float64, maxVol, meanVol, wireRatio float64) {
	if meanVol > 0 && maxVol > 0 {
		s := maxVol / meanVol
		if s < 1 {
			s = 1
		}
		if s > skewMax {
			s = skewMax
		}
		fb.skew = s
	}
	if wireRatio > 0 {
		if wireRatio > wireRatioMax {
			wireRatio = wireRatioMax
		}
		if wireRatio < wireRatioMin {
			wireRatio = wireRatioMin
		}
		fb.wireRatio = wireRatio
	}
	if rawPredicted <= 0 || actual <= 0 {
		return
	}
	ratio := actual / rawPredicted
	if ratio < calibMin {
		ratio = calibMin
	}
	if ratio > calibMax {
		ratio = calibMax
	}
	c := (1-calibEWMA)*fb.calib[strategy] + calibEWMA*ratio
	if c < calibMin {
		c = calibMin
	}
	if c > calibMax {
		c = calibMax
	}
	fb.calib[strategy] = c
}

// exchangePolicy evaluates the per-iteration strategy decision for one run.
// It is immutable after construction and shared by all rank goroutines;
// mutable feedback lives in each rank's policyFeedback copy.
type exchangePolicy struct {
	configured Exchange // the run's configured strategy (hybrid ⇒ decide per iteration)
	e          *runEnv
	prank      int
	// expansion estimates bytes entering the normal exchange per input
	// frontier vertex on the first iteration (before measured feedback
	// exists): 4 bytes per id × average out-degree × the nn edge fraction,
	// since only nn edges generate inter-rank normal traffic.
	expansion float64
	// hypercube geometry (mirrors butterflyExchange).
	q, rem, nhops int
}

func (e *runEnv) newExchangePolicy() *exchangePolicy {
	prank := e.shape.Ranks()
	q, rem, nhops := hypercubeGeometry(prank)
	var expansion float64
	if e.sg.N > 0 && e.sg.M > 0 {
		avgDeg := float64(e.sg.M) / float64(e.sg.N)
		nnFrac := float64(e.sg.CountNN) / float64(e.sg.M)
		expansion = 4 * avgDeg * nnFrac
	}
	return &exchangePolicy{
		configured: e.opts.Exchange,
		e:          e,
		prank:      prank,
		expansion:  expansion,
		q:          q,
		rem:        rem,
		nhops:      nhops,
	}
}

// predictVolume estimates this iteration's per-rank exchange volume in
// amplified bytes from globally known quantities: the input normal frontier
// size and, once available, the previous iteration's measured global
// originated bytes (fixed-width, forwards excluded — strategy-independent,
// so a butterfly iteration's relayed volume never pollutes the estimate)
// scaled by the frontier growth ratio. The mean per-rank estimate is then
// scaled by the measured skew ratio, since the timing model charges the
// max-reduced rank, not the mean. Every rank computes the identical
// estimate.
func (p *exchangePolicy) predictVolume(inputNormals, inputDelegates, prevNormals, prevOriginated int64, skew float64) int64 {
	if p.prank <= 1 || (inputNormals <= 0 && inputDelegates <= 0) {
		return 0
	}
	var globalEst float64
	if inputNormals > 0 {
		if prevOriginated > 0 && prevNormals > 0 {
			globalEst = float64(prevOriginated) * float64(inputNormals) / float64(prevNormals)
		} else {
			globalEst = float64(inputNormals) * p.expansion
		}
	}
	perRank := globalEst / float64(p.prank)
	if skew > 1 {
		perRank *= skew
	}
	// A live frontier never rounds down to a free exchange: floor the
	// estimate at one id so the cost model sees the latency regime —
	// all-pairs pays its per-pair message floor on near-empty iterations,
	// which is exactly where the butterfly's few hops win. Delegate-only
	// frontiers (a delegate source, or a pull-phase iteration with no
	// normal discoveries) land here too: only nn edges put payload on the
	// normal exchange, but the synchronized empty rounds still cross the
	// NIC and cost their per-message latencies.
	if perRank < 4 {
		perRank = 4
	}
	return p.e.ampBytes(int64(perRank))
}

// codecOn reports whether the wire codec (and hence its compute cost) is in
// play for this run.
func (p *exchangePolicy) codecOn() bool {
	return p.e.opts.Compression != wire.ModeOff
}

// onWire converts a fixed-width volume into its predicted wire-byte
// equivalent using the measured compression ratio.
func onWire(vol int64, wireRatio float64) int64 {
	if wireRatio == 1 || vol <= 0 {
		return vol
	}
	w := int64(float64(vol) * wireRatio)
	if w < 1 {
		w = 1
	}
	return w
}

// allPairsCost predicts an all-pairs exchange originating vol fixed-width
// bytes per rank — exactly allPairsExchange.remoteTime applied to the
// predicted volume. sec is the remote-normal prediction: the point-to-point
// curve over the predicted wire bytes plus, with a codec active, the
// single-round encode+decode compute over the raw bytes (never overlapped —
// one round has no earlier transfer to hide under). nv is the hierarchical
// NVLink tier's predicted exposure — the intra-rank aggregation plus the
// send and receive staging copies (received volume ≈ sent, the exchange
// being globally symmetric), all serial in a single round — which the
// timing model charges to LocalComm, not remote-normal.
func (p *exchangePolicy) allPairsCost(vol int64, wireRatio float64) (sec, nv float64) {
	w := onWire(vol, wireRatio)
	// Any volume at all still pays one message per destination — the round
	// is synchronized on the reduced maxima, so even a near-empty predicted
	// frontier meets every pair's latency floor. Below pairs² bytes the
	// ceil-split message count collapses under the pair count and the
	// prediction drops floors the measured side always charges; clamping
	// there costs only a few bytes of phantom bandwidth.
	if pairs := p.e.effPairs(); w > 0 && w < pairs*pairs {
		w = pairs * pairs
	}
	net := p.e.opts.Net
	t := net.PointToPoint(w, p.e.effMessageBytes(w))
	if p.codecOn() {
		t += p.e.opts.GPU.CodecTime(2 * vol)
	}
	if p.e.hierExchange() {
		agg := p.e.aggregationBytes(vol)
		nv = net.LocalExchange(agg, p.e.shape.GPUsPerRank) + 2*net.Staging(w)
	}
	return t, nv
}

// policyScratch backs one rank's per-iteration cost evaluation: the
// butterfly hop profile, its wire-byte equivalent, and the codec and NVLink
// stages. The shapes are fixed by the hypercube geometry (nhops+2 entries
// at most), so after the first iteration the evaluation allocates nothing.
// The policy object itself is shared by every rank goroutine and stays
// immutable; the scratch is the per-rank mutable part, threaded in by the
// BSP loop.
type policyScratch struct {
	hops, wire []int64
	stages     []float64
	nvStages   []float64
}

// butterflyHops predicts the per-hop volume profile of a butterfly exchange
// originating vol bytes per rank. With traffic spread uniformly over p−1
// destinations, each hypercube hop forwards about half the standing volume
// — vol·p/(2(p−1)) per hop, the relay factor the strategy pays for its
// fewer messages — while the cleanup hops move a remainder rank's full
// origination (pre) and a full rank's worth of arrivals (post).
func (p *exchangePolicy) butterflyHops(vol int64) []int64 {
	return p.appendButterflyHops(nil, vol)
}

// appendButterflyHops is butterflyHops into a caller-owned buffer.
func (p *exchangePolicy) appendButterflyHops(buf []int64, vol int64) []int64 {
	hopVol := int64(float64(vol) * float64(p.prank) / (2 * float64(p.prank-1)))
	hops := buf[:0]
	if cap(hops) < p.nhops+2 {
		hops = make([]int64, 0, p.nhops+2)
	}
	if p.rem > 0 {
		hops = append(hops, vol)
	}
	for h := 0; h < p.nhops; h++ {
		hops = append(hops, hopVol)
	}
	if p.rem > 0 {
		hops = append(hops, vol)
	}
	return hops
}

// butterflyCodec predicts the per-hop codec compute stages of a butterfly
// exchange with the given hop profile, mirroring how the exchange assembles
// its measured stages: hop k's stage is its decode plus the re-encode
// feeding hop k+1, and the first hop's encode precedes all communication.
func (p *exchangePolicy) butterflyCodec(hops []int64) (stages []float64, pre float64) {
	return p.appendButterflyCodec(nil, hops)
}

// appendButterflyCodec is butterflyCodec into a caller-owned buffer.
func (p *exchangePolicy) appendButterflyCodec(buf []float64, hops []int64) (stages []float64, pre float64) {
	stages = grownFloat64(buf, len(hops))
	if !p.codecOn() || len(hops) == 0 {
		return stages, 0
	}
	gpu := p.e.opts.GPU
	for k := range hops {
		raw := hops[k]
		if k+1 < len(hops) {
			raw += hops[k+1]
		}
		stages[k] = gpu.CodecTime(raw)
	}
	return stages, gpu.CodecTime(hops[0])
}

// butterflyCost predicts a butterfly exchange originating vol fixed-width
// bytes per rank — butterflyExchange.remoteTime applied to the predicted
// profiles: codec stages over the raw hop volumes, transfers over their
// wire-byte equivalents, combined by the pipelined schedule. sec is the
// remote-normal (wire+codec) prediction; nv the NVLink tier's
// predicted exposure, charged to LocalComm by the timing model.
func (p *exchangePolicy) butterflyCost(vol int64, wireRatio float64) (sec, nv float64) {
	return p.butterflyCostS(vol, wireRatio, &policyScratch{})
}

// butterflyCostS is butterflyCost evaluated through a per-rank scratch.
// Under the hierarchical exchange the predicted NVLink stages mirror how
// butterflyExchange.remoteTime builds the measured ones: one staging charge
// per direction per iteration spread over the hops in volume proportion
// (received ≈ sent per hop — the hops are pairwise exchanges), the pre
// stage the intra-rank aggregation plus the first send's share. The
// predicted exposure is then the tier's marginal on the pipelined schedule
// (three- minus two-resource total).
func (p *exchangePolicy) butterflyCostS(vol int64, wireRatio float64, ps *policyScratch) (sec, nvOut float64) {
	ps.hops = p.appendButterflyHops(ps.hops, vol)
	hops := ps.hops
	var pre float64
	ps.stages, pre = p.appendButterflyCodec(ps.stages, hops)
	stages := ps.stages
	wireHops := hops
	if wireRatio != 1 {
		ps.wire = grownInt64(ps.wire, len(hops))
		wireHops = ps.wire
		for i, h := range hops {
			wireHops[i] = onWire(h, wireRatio)
		}
	}
	net := p.e.opts.Net
	sched := simnet.ExchangeSchedule{
		HopBytes: wireHops,
		HopCodec: stages,
		PreCodec: pre,
		MsgCap:   p.e.opts.MessageBytes,
	}
	wc := net.PipelinedExchange(sched).Total
	if !p.e.hierExchange() {
		return wc, 0
	}
	var sendTot int64
	for _, h := range wireHops {
		sendTot += h
	}
	sendSecs := net.Staging(sendTot)
	nv := grownFloat64(ps.nvStages, len(wireHops))
	ps.nvStages = nv
	for k := range wireHops {
		nv[k] = stagingShare(sendSecs, wireHops[k], sendTot)
		if k+1 < len(wireHops) {
			nv[k] += stagingShare(sendSecs, wireHops[k+1], sendTot)
		}
	}
	preNV := net.LocalExchange(p.e.aggregationBytes(vol), p.e.shape.GPUsPerRank)
	if len(wireHops) > 0 {
		preNV += stagingShare(sendSecs, wireHops[0], sendTot)
	}
	sched.HopNVLink, sched.PreNVLink = nv, preNV
	return wc, net.PipelinedExchange(sched).Total - wc
}

// choose returns the strategy for the upcoming iteration plus its predicted
// remote-normal seconds (calibrated by the session feedback). Fixed
// configurations keep their strategy (the prediction is still recorded,
// giving every run a predicted-vs-actual trace); hybrid takes the side
// whose full price — calibrated remote-normal plus the raw NVLink-tier
// exposure — is cheaper, preferring the butterfly on ties — equal-cost
// iterations are latency-bound, where fewer messages also mean fewer
// software overheads the model does not charge. The NVLink term rides
// uncalibrated: its actual lands in LocalComm, outside the remote-normal
// calibration pair, and its curves are the exact simnet forms anyway.
func (p *exchangePolicy) choose(inputNormals, inputDelegates, prevNormals, prevOriginated int64, fb policyFeedback) (Exchange, float64) {
	return p.chooseS(inputNormals, inputDelegates, prevNormals, prevOriginated, fb, &policyScratch{})
}

// chooseS is choose evaluated through a per-rank scratch — the BSP loops
// call it every iteration, so the cost evaluation must not allocate.
func (p *exchangePolicy) chooseS(inputNormals, inputDelegates, prevNormals, prevOriginated int64, fb policyFeedback, ps *policyScratch) (Exchange, float64) {
	vol := p.predictVolume(inputNormals, inputDelegates, prevNormals, prevOriginated, fb.skew)
	switch p.configured {
	case ExchangeAllPairs:
		s, _ := p.allPairsCost(vol, fb.wireRatio)
		return ExchangeAllPairs, s * fb.calib[ExchangeAllPairs]
	case ExchangeButterfly:
		s, _ := p.butterflyCostS(vol, fb.wireRatio, ps)
		return ExchangeButterfly, s * fb.calib[ExchangeButterfly]
	}
	if p.prank <= 1 {
		return ExchangeAllPairs, 0
	}
	apS, apNV := p.allPairsCost(vol, fb.wireRatio)
	bfS, bfNV := p.butterflyCostS(vol, fb.wireRatio, ps)
	ap := apS*fb.calib[ExchangeAllPairs] + apNV
	bf := bfS*fb.calib[ExchangeButterfly] + bfNV
	if bf <= ap {
		return ExchangeButterfly, bfS * fb.calib[ExchangeButterfly]
	}
	return ExchangeAllPairs, apS * fb.calib[ExchangeAllPairs]
}
