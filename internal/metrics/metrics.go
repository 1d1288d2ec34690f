// Package metrics defines the timing breakdown and reporting conventions of
// the paper's evaluation (§VI): the four-way runtime split of Figs. 8/10
// (computation, local communication, remote normal exchange, remote delegate
// reduce), traversal rates in GTEPS, and geometric-mean aggregation over
// randomly sourced runs with the Graph500 more-than-one-iteration filter.
package metrics

import "math"

// Direction of a visit kernel in the direction-optimizing engine.
type Direction uint8

const (
	Forward  Direction = iota // top-down push
	Backward                  // bottom-up pull
)

func (d Direction) String() string {
	if d == Forward {
		return "fwd"
	}
	return "bwd"
}

// Breakdown is simulated seconds split into the paper's four components.
// The sum of parts exceeds elapsed time when phases overlap (Fig. 10's
// caption makes the same caveat).
type Breakdown struct {
	Computation    float64
	LocalComm      float64
	RemoteNormal   float64
	RemoteDelegate float64
}

// Add accumulates other into b.
func (b *Breakdown) Add(other Breakdown) {
	b.Computation += other.Computation
	b.LocalComm += other.LocalComm
	b.RemoteNormal += other.RemoteNormal
	b.RemoteDelegate += other.RemoteDelegate
}

// Sum returns the total of all parts (an upper bound on elapsed time).
func (b Breakdown) Sum() float64 {
	return b.Computation + b.LocalComm + b.RemoteNormal + b.RemoteDelegate
}

// IterationStats records one BSP super-step.
type IterationStats struct {
	Iteration           int
	FrontierNormals     int64 // input normal frontier size (global)
	FrontierDelegates   int64 // input delegate frontier size (global)
	DirDD, DirDN, DirND Direction
	// Exchange is the exchange strategy the policy picked for this
	// iteration ("allpairs" or "butterfly") — fixed configurations repeat
	// the same value, the hybrid policy may switch per iteration.
	Exchange     string
	EdgesScanned int64 // actual edges touched by kernels this iteration
	BytesNormal  int64 // inter-rank normal-exchange payload on the wire
	// BytesNormalRaw is the fixed-width (4 bytes/id) equivalent of the
	// normal exchange — equal to BytesNormal when compression is off.
	BytesNormalRaw int64
	BytesDelegate  int64 // delegate-mask reduction payload on the wire
	Elapsed        float64
	// PredictedRemote is the policy cost model's predicted remote-normal
	// seconds for the chosen strategy (calibrated by the session's
	// predicted-vs-actual feedback when it has accumulated), comparable
	// against Parts.RemoteNormal.
	PredictedRemote float64
	// CodecHidden/CodecExposed split this iteration's codec compute: the
	// part the pipelined butterfly hid under concurrent hop transfers, and
	// the part that stayed on the critical path (and therefore sits inside
	// Parts.RemoteNormal). Their sum is the iteration's total codec work;
	// CodecHidden is zero for all-pairs iterations.
	CodecHidden, CodecExposed float64
	// NVLinkHidden/NVLinkExposed split the hierarchical exchange's NVLink
	// tier (intra-rank aggregation plus send/recv staging) the same way:
	// hidden under concurrent hop transfers and codec stages vs exposed as
	// the tier's critical-path marginal. The exposed part is charged to
	// Parts.LocalComm, where intra-rank staging time lives, so
	// Parts.RemoteNormal stays a pure wire+codec quantity. Both zero at one
	// GPU per rank.
	NVLinkHidden, NVLinkExposed float64
	Parts                       Breakdown
}

// WireStats summarizes the frontier-exchange codec's effect over a run:
// the fixed-width byte equivalent of every inter-rank normal payload, the
// bytes actually sent, and how often the adaptive selector picked each
// scheme. With compression off, Enabled is false, the scheme counters are
// zero, and RawBytes equals CompressedBytes (both count id bytes only).
type WireStats struct {
	Enabled         bool
	RawBytes        int64 // 4 bytes per exchanged id (the paper's 4·|Enn|)
	CompressedBytes int64 // bytes on the wire, headers and checksums included
	// Per-block scheme selections across all messages of the run.
	SchemeRaw, SchemeDelta, SchemeBitmap int64
	// MemoHits counts adaptive blocks encoded straight from the selector's
	// per-destination scheme memory, skipping the full three-way probe.
	MemoHits int64
	// CodecBytes is the fixed-width equivalent of every id pushed through
	// the codec's encode and decode kernels across all ranks — for the
	// butterfly this multiplies with the per-hop re-encode, so it exceeds
	// RawBytes there. Zero when compression is off.
	CodecBytes int64
	// CodecSeconds is the simulated compute time charged for that codec
	// work (simgpu.Spec.CodecRate). It lands in the run's RemoteNormal
	// breakdown component except the portion the pipelined butterfly hid
	// under concurrent hop transfers (ExchangeStats.HiddenCodecSeconds).
	// Zero when compression is off or CodecRate unset.
	CodecSeconds float64
	// PairRawBytes/PairWireBytes account the post-BFS parent-resolution
	// pairs exchange: the fixed-width 12-bytes-per-pair equivalent and the
	// bytes actually sent (equal when compression is off). Like ParentPairs,
	// this traffic is reported but excluded from simulated BFS time.
	PairRawBytes, PairWireBytes int64
	// MaskRawBytes/MaskWireBytes account the delegate-mask reductions when
	// a codec is active: the native d/8-byte bitmap size per exchanged
	// iteration, and the bytes the allreduce actually shipped after running
	// the reduced mask through the same adaptive raw/delta/bitmap
	// selection (sparse late-iteration masks shrink; dense masks stay at
	// their native size). Both zero with compression off.
	MaskRawBytes, MaskWireBytes int64
}

// Accumulate folds another run's wire accounting into w (Enabled is OR-ed).
func (w *WireStats) Accumulate(other WireStats) {
	w.Enabled = w.Enabled || other.Enabled
	w.RawBytes += other.RawBytes
	w.CompressedBytes += other.CompressedBytes
	w.SchemeRaw += other.SchemeRaw
	w.SchemeDelta += other.SchemeDelta
	w.SchemeBitmap += other.SchemeBitmap
	w.MemoHits += other.MemoHits
	w.CodecBytes += other.CodecBytes
	w.CodecSeconds += other.CodecSeconds
	w.PairRawBytes += other.PairRawBytes
	w.PairWireBytes += other.PairWireBytes
	w.MaskRawBytes += other.MaskRawBytes
	w.MaskWireBytes += other.MaskWireBytes
}

// Savings returns the fraction of raw bytes eliminated by the codec
// (negative when framing overhead exceeded the compression win).
func (w WireStats) Savings() float64 {
	if w.RawBytes == 0 {
		return 0
	}
	return 1 - float64(w.CompressedBytes)/float64(w.RawBytes)
}

// ExchangeStats summarizes the inter-rank normal-vertex exchange of a run:
// the configured policy, the per-iteration strategy split the policy chose,
// and the counters that separate the all-pairs and butterfly regimes —
// message count (p−1 vs ~log2 p per rank per iteration), bytes relayed
// through intermediate ranks, and the largest message the timing model saw.
type ExchangeStats struct {
	Strategy string // configured policy: "allpairs", "butterfly" or "hybrid"
	// AllPairsIterations/ButterflyIterations count the iterations executed
	// with each strategy. Fixed configurations put every iteration on one
	// side; the hybrid policy splits them by the per-iteration cost model.
	AllPairsIterations, ButterflyIterations int64
	// HopsPerIteration is the largest number of sequential communication
	// rounds any iteration used: 1 for all-pairs, log2(q) for a
	// power-of-two butterfly, log2(q)+2 with the non-power-of-two cleanup
	// hops.
	HopsPerIteration int
	// Messages counts inter-rank point-to-point messages across all ranks
	// and iterations (empty payloads included — they still cross the NIC).
	Messages int64
	// ForwardedBytes is the fixed-width equivalent of ids relayed on behalf
	// of other ranks — the volume the butterfly pays for its fewer, larger
	// messages. Zero for all-pairs.
	ForwardedBytes int64
	// MaxMessageBytes is the largest per-message size the timing model saw
	// (work amplification applied) — the number that decides where on the
	// §VI-A1 efficiency curve the exchange lands.
	MaxMessageBytes int64
	// PredictedSeconds sums the policy cost model's per-iteration
	// remote-normal predictions — against the run's actual
	// Parts.RemoteNormal it measures how well the model tracks the
	// simulated network.
	PredictedSeconds float64
	// HiddenCodecSeconds is the codec compute the pipelined butterfly hid
	// under concurrent hop transfers across the run. Always at most the
	// run's total codec seconds: overlap hides time, never creates it.
	HiddenCodecSeconds float64
	// PipelineStalls counts pipeline steps where a hop's codec or NVLink
	// stage outlasted the transfer it overlapped — the exchange was
	// compute- or staging-bound there, so a faster codec or NVLink (not a
	// faster network) is what would help.
	PipelineStalls int64
	// NVLinkSeconds is the hierarchical exchange's NVLink tier across the
	// run — the intra-rank aggregation plus the send/recv staging copies
	// that ride the exchange schedule as a third pipeline resource.
	// HiddenNVLinkSeconds is the part the pipelined butterfly absorbed
	// under concurrent hop transfers and codec stages (mirroring
	// HiddenCodecSeconds; at most NVLinkSeconds); the exposed remainder is
	// charged to the run's LocalComm breakdown component, where intra-rank
	// staging time lives, never RemoteNormal. Both zero at one GPU per
	// rank.
	NVLinkSeconds, HiddenNVLinkSeconds float64
	// MaskFoldSavedSeconds is the delegate-mask allreduce time saved by
	// folding its chunked reduction into the pipelined butterfly's hop
	// steps — the serial reduction cost minus the fold's marginal elapsed
	// delta, summed over iterations where the fold won (never negative).
	MaskFoldSavedSeconds float64
	// CalibrationAllPairs/CalibrationButterfly are the session's final
	// predicted-vs-actual EWMA factors per strategy (1 ≈ the cost model
	// tracked the simulated network exactly; 0 means the strategy never
	// ran, so no feedback accumulated). Subsequent predictions are scaled
	// by them, tightening hybrid decisions near the crossover.
	CalibrationAllPairs, CalibrationButterfly float64
	// SkewEWMA/WireRatioEWMA are the session's final partition-skew and
	// wire-over-raw ratio feedback (policy.go; 0 means the run recorded no
	// feedback).
	SkewEWMA, WireRatioEWMA float64
}

// Accumulate folds another run's exchange accounting into e. Strategy is
// taken from the other run when unset (all runs of one engine share it).
func (e *ExchangeStats) Accumulate(other ExchangeStats) {
	if e.Strategy == "" {
		e.Strategy = other.Strategy
	}
	if other.HopsPerIteration > e.HopsPerIteration {
		e.HopsPerIteration = other.HopsPerIteration
	}
	e.AllPairsIterations += other.AllPairsIterations
	e.ButterflyIterations += other.ButterflyIterations
	e.Messages += other.Messages
	e.ForwardedBytes += other.ForwardedBytes
	if other.MaxMessageBytes > e.MaxMessageBytes {
		e.MaxMessageBytes = other.MaxMessageBytes
	}
	e.PredictedSeconds += other.PredictedSeconds
	e.HiddenCodecSeconds += other.HiddenCodecSeconds
	e.PipelineStalls += other.PipelineStalls
	e.NVLinkSeconds += other.NVLinkSeconds
	e.HiddenNVLinkSeconds += other.HiddenNVLinkSeconds
	e.MaskFoldSavedSeconds += other.MaskFoldSavedSeconds
	// Calibration factors are per-run session state, not additive: keep the
	// most recent run's final factors.
	if other.CalibrationAllPairs != 0 {
		e.CalibrationAllPairs = other.CalibrationAllPairs
	}
	if other.CalibrationButterfly != 0 {
		e.CalibrationButterfly = other.CalibrationButterfly
	}
	if other.SkewEWMA != 0 {
		e.SkewEWMA = other.SkewEWMA
	}
	if other.WireRatioEWMA != 0 {
		e.WireRatioEWMA = other.WireRatioEWMA
	}
}

// FaultStats counts the fault-tolerance machinery's activity at the service
// level: faults the injector fired, retries the retry policy spent, runs that
// fell back to the degraded exchange, and runs that exhausted retries and
// surfaced a typed error. All zero on the fault-free fast path.
type FaultStats struct {
	// Injected is the number of fault decisions the armed injector fired
	// across all attempts of the accounted queries.
	Injected int64
	// Retries counts re-executions after a contained fault (first attempts
	// are not retries: a query that succeeds immediately contributes 0).
	Retries int64
	// Degraded counts attempts re-run with the degraded configuration
	// (all-pairs exchange).
	Degraded int64
	// Exhausted counts queries that spent every attempt and returned the
	// typed error to the caller.
	Exhausted int64
	// Timeouts counts queries that ended on a per-query deadline
	// (context.DeadlineExceeded), which the retry policy never retries.
	Timeouts int64
}

// Accumulate folds other into f.
func (f *FaultStats) Accumulate(other FaultStats) {
	f.Injected += other.Injected
	f.Retries += other.Retries
	f.Degraded += other.Degraded
	f.Exhausted += other.Exhausted
	f.Timeouts += other.Timeouts
}

// RunResult is the outcome of one BFS execution.
type RunResult struct {
	Source int64
	// Epoch identifies the graph version the query ran against (0 for plans
	// built outside an epoch-versioned service). Queries admitted before an
	// atomic epoch swap finish — and report — their admission epoch.
	Epoch         uint64
	Iterations    int
	SimSeconds    float64
	TEPSEdges     int64 // edge count used for the rate (Graph500: m/2)
	EdgesScanned  int64 // actual traversal work
	DupsRemoved   int64 // uniquify hits
	Parts         Breakdown
	PerIteration  []IterationStats
	Levels        []int32 // hop distances per global vertex (-1 unreachable)
	Parents       []int64 // BFS-tree parents (-1 unreachable); nil unless collected
	ParentPairs   int64   // pairs moved by the post-BFS parent resolution
	DelegateComms int     // iterations that exchanged delegate masks
	Wire          WireStats
	Exchange      ExchangeStats
}

// GTEPS returns the traversal rate in giga-traversed-edges per second using
// the Graph500 convention (TEPSEdges / elapsed).
func (r *RunResult) GTEPS() float64 {
	if r.SimSeconds <= 0 {
		return 0
	}
	return float64(r.TEPSEdges) / r.SimSeconds / 1e9
}

// MultipleIterations reports whether the run executed more than one
// iteration — the paper's filter for reported data points ("only the ones
// that executed for more than 1 iteration are considered").
func (r *RunResult) MultipleIterations() bool { return r.Iterations > 1 }

// HiddenCodecRatio returns the fraction of the run's codec compute the
// pipelined exchange hid under concurrent hop transfers — 1 means every
// codec second overlapped a transfer, 0 means it all sat on the critical
// path (or no codec work ran).
func (r *RunResult) HiddenCodecRatio() float64 {
	if r.Wire.CodecSeconds <= 0 {
		return 0
	}
	return r.Exchange.HiddenCodecSeconds / r.Wire.CodecSeconds
}

// PolicyError returns the exchange cost model's relative prediction error
// over the run: |Σpredicted − actual| / actual against the remote-normal
// time. 0 when the run had no remote-normal time.
func (r *RunResult) PolicyError() float64 {
	if r.Parts.RemoteNormal <= 0 {
		return 0
	}
	return math.Abs(r.Exchange.PredictedSeconds-r.Parts.RemoteNormal) / r.Parts.RemoteNormal
}

// GeoMean returns the geometric mean of positive values; zero for empty
// input. The paper reports geometric means of traversal rates.
func GeoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var logSum float64
	n := 0
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		logSum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Aggregate summarizes a batch of runs the way the paper reports data
// points: filter out ≤1-iteration runs, then geometric-mean the rates and
// arithmetic-mean the breakdowns.
type Aggregate struct {
	Runs       int
	Filtered   int // runs dropped by the >1-iteration rule
	GTEPS      float64
	MeanMS     float64
	Iterations float64 // mean iterations
	Parts      Breakdown
}

// Aggregate reduces results into a reportable data point.
func AggregateRuns(results []*RunResult) Aggregate {
	var agg Aggregate
	var rates []float64
	var times []float64
	kept := 0
	for _, r := range results {
		agg.Runs++
		if !r.MultipleIterations() {
			agg.Filtered++
			continue
		}
		kept++
		rates = append(rates, r.GTEPS())
		times = append(times, r.SimSeconds)
		agg.Iterations += float64(r.Iterations)
		agg.Parts.Add(r.Parts)
	}
	if kept == 0 {
		return agg
	}
	agg.GTEPS = GeoMean(rates)
	var sum float64
	for _, t := range times {
		sum += t
	}
	agg.MeanMS = sum / float64(kept) * 1e3
	agg.Iterations /= float64(kept)
	agg.Parts = Breakdown{
		Computation:    agg.Parts.Computation / float64(kept),
		LocalComm:      agg.Parts.LocalComm / float64(kept),
		RemoteNormal:   agg.Parts.RemoteNormal / float64(kept),
		RemoteDelegate: agg.Parts.RemoteDelegate / float64(kept),
	}
	return agg
}
