package core

// This file is the per-iteration exchange policy layer. The paper picks
// push vs pull each iteration from the known frontier size (§IV-B); the
// hybrid exchange policy applies the same idea to the exchange topology:
// all-pairs wins bandwidth-bound iterations (the butterfly relays roughly
// log2(p)/2× the volume) while the butterfly wins message-count-bound ones
// (p−1 latencies vs log2(p) plus cleanup). The closer of the previous
// iteration's post-exchange rendezvous evaluates the cost model once, over
// the frontier sizes and byte volumes that rendezvous reduced, and hands the
// decision to every rank without any extra collective.
//
// The cost model is the α/β form unit-tested against simnet's timing:
//
//	all-pairs:  ≈ pairs·α + V·β(msg) + codec(2V)     (p−1 sends per rank)
//	butterfly:  ≈ hops·α + relay·V·β(msg') + codec   (log2(q) hops + cleanup)
//
// realized by the strategy's own price: its exchanger predicts the volumes
// the exchange would present for a per-rank volume V (exchanger.predict) and
// its remoteTime — the very function that charges the measured iteration —
// prices them. A charging-rule edit is therefore one edit, and the
// butterfly's predicted codec and NVLink stages overlap its predicted
// transfers exactly as the measured ones do.
//
// Two feedback signals, both derived from globally reduced quantities,
// tighten the estimate per query:
//
//   - skew: the timing model charges the max-reduced rank while the volume
//     estimate is a mean; the previous iteration's reduced per-hop maxima
//     over the mean per-rank volume prices partition skew into both costs.
//   - calibration: a per-strategy EWMA of actual vs predicted remote-normal
//     seconds scales subsequent predictions, absorbing systematic model
//     bias near the crossover.

// policyFeedback carries the measured feedback the BSP loop threads into
// each iteration's decision: one per query (loopState.fb), updated by the
// superstep closers from globally reduced values only. The zero feedback is
// invalid; use newPolicyFeedback.
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
// It is immutable after construction and shared by all ranks;
// mutable feedback lives in the query's one policyFeedback.
type exchangePolicy struct {
	configured Exchange // the run's configured strategy (hybrid ⇒ decide per iteration)
	e          *runEnv
	prank      int
	// expansion estimates bytes entering the normal exchange per input
	// frontier vertex on the first iteration (before measured feedback
	// exists): 4 bytes per id × average out-degree × the nn edge fraction,
	// since only nn edges generate inter-rank normal traffic.
	expansion float64
}

func (e *runEnv) newExchangePolicy() *exchangePolicy {
	prank := e.shape.Ranks()
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
	}
}

// predictVolume estimates this iteration's per-rank exchange volume in
// amplified bytes from globally known quantities: the input normal frontier
// size and, once available, the previous iteration's measured global
// originated bytes (fixed-width, forwards excluded — strategy-independent,
// so a butterfly iteration's relayed volume never pollutes the estimate)
// scaled by the frontier growth ratio. The mean per-rank estimate is then
// scaled by the measured skew ratio, since the timing model charges the
// max-reduced rank, not the mean.
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

// choose returns the strategy for the upcoming iteration plus its predicted
// remote-normal seconds (calibrated by the session feedback), pricing each
// side with the rank's own instance of it, as exchanger (the rank's
// lanes.exchanger) returns it. Fixed configurations keep their strategy (the prediction
// is still recorded, giving every run a predicted-vs-actual trace); hybrid
// takes the side whose full price — calibrated remote-normal plus the raw
// NVLink-tier exposure — is cheaper, preferring the butterfly on ties —
// equal-cost iterations are latency-bound, where fewer messages also mean
// fewer software overheads the model does not charge. The NVLink term rides
// uncalibrated: its actual lands in LocalComm, outside the remote-normal
// calibration pair, and its curves are the exact simnet forms anyway. Each
// superstep's closer calls it, so it must not allocate.
func (p *exchangePolicy) choose(inputNormals, inputDelegates, prevNormals, prevOriginated int64, fb policyFeedback, exchanger func(Exchange) exchanger) (Exchange, float64) {
	vol := p.predictVolume(inputNormals, inputDelegates, prevNormals, prevOriginated, fb.skew)
	if p.configured != ExchangeHybrid {
		s, _ := price(exchanger(p.configured), vol, fb.wireRatio)
		return p.configured, s * fb.calib[p.configured]
	}
	if p.prank <= 1 {
		return ExchangeAllPairs, 0
	}
	apS, apNV := price(exchanger(ExchangeAllPairs), vol, fb.wireRatio)
	bfS, bfNV := price(exchanger(ExchangeButterfly), vol, fb.wireRatio)
	ap := apS*fb.calib[ExchangeAllPairs] + apNV
	bf := bfS*fb.calib[ExchangeButterfly] + bfNV
	if bf <= ap {
		return ExchangeButterfly, bfS * fb.calib[ExchangeButterfly]
	}
	return ExchangeAllPairs, apS * fb.calib[ExchangeAllPairs]
}

// price is one strategy's predicted remote-normal seconds and NVLink-tier
// exposure (charged to LocalComm by the timing model) for an exchange
// originating vol fixed-width bytes per rank: ex's remoteTime over what ex
// predicts it would present.
func price(ex exchanger, vol int64, wireRatio float64) (sec, nv float64) {
	rt := ex.remoteTime(ex.predict(vol, wireRatio))
	return rt.seconds, rt.nvlinkExposed
}
