// Package simnet models the cluster interconnect of the paper's testbed
// (§VI-A1): NVLink between GPUs and CPU within a socket (40 GB/s each
// direction), one EDR 100 Gb/s InfiniBand NIC per socket (= per MPI rank)
// into a FatTree, message-size-dependent effective bandwidth with an optimum
// near 4 MB, and the Ray-specific constraint that NIC↔GPU traffic stages
// through CPU memory (no GPUDirect RDMA).
//
// The model converts communication *volumes* (which the functional MPI layer
// counts exactly) into simulated seconds. All times are float64 seconds.
package simnet

import "math"

// Link is a latency/bandwidth pair.
type Link struct {
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes per second
}

// Spec describes the cluster fabric.
type Spec struct {
	Name string

	// NVLink is the GPU↔CPU (and GPU↔GPU peer) link within a socket.
	NVLink Link
	// IB is the per-rank (per-socket) NIC into the inter-node fabric.
	IB Link

	// GPUDirectRDMA, when false (Ray), charges an extra staging copy over
	// NVLink on each side of every remote transfer (§VI-A2 workaround:
	// cudaMemcpyAsync to CPU memory, MPI from CPU buffers).
	GPUDirectRDMA bool

	// IallreducePenalty multiplies the bandwidth term of non-blocking
	// Iallreduce: the paper observed the fresh MPI_Iallreduce on Ray was
	// unoptimized and slower than blocking Allreduce at scale (§VI-B).
	IallreducePenalty float64

	// SmallMsgPlateau is the efficiency floor for messages under 2 MB,
	// where "the network appears to do a better job with caching, and the
	// differences between message sizes are not that significant".
	SmallMsgPlateau float64
}

// Ray returns the model of LLNL's CORAL early-access system: NVLink 40 GB/s,
// EDR IB ≈ 12.5 GB/s per socket, no GPU RDMA, unoptimized Iallreduce.
func Ray() Spec {
	return Spec{
		Name:              "Ray (CORAL EA)",
		NVLink:            Link{Latency: 2e-6, Bandwidth: 40e9},
		IB:                Link{Latency: 3e-6, Bandwidth: 12.5e9},
		GPUDirectRDMA:     false,
		IallreducePenalty: 2.2,
		SmallMsgPlateau:   0.72,
	}
}

// log2of3 normalises Efficiency's small-message rise to reach 1 at 2 MB
// (log2(1+2) there). A package variable because math.Log2 is not a constant
// expression, and Efficiency runs several times per rank per superstep.
var log2of3 = math.Log2(3)

// Efficiency returns the fraction of peak IB bandwidth achieved at a given
// message size, reproducing the §VI-A1 sweep: a plateau below 2 MB, a ramp
// to the 4 MB optimum, and a slight decline toward 16 MB.
func (s Spec) Efficiency(msgBytes int64) float64 {
	const (
		mb    = 1 << 20
		small = 2 * mb
		opt   = 4 * mb
		large = 16 * mb
	)
	b := float64(msgBytes)
	switch {
	case msgBytes <= 0:
		return s.SmallMsgPlateau
	case b <= small:
		// Gentle rise within the cached-small-message regime.
		f := math.Log2(1+b/float64(mb)) / log2of3 // 0 → 1 over (0, 2MB]
		return s.SmallMsgPlateau + 0.08*f
	case b <= opt:
		// Ramp from the plateau edge to peak at 4 MB.
		f := (b - small) / (opt - small)
		return (s.SmallMsgPlateau + 0.08) + (1.0-(s.SmallMsgPlateau+0.08))*f
	case b <= large:
		// Slight decline past the optimum.
		f := (b - opt) / (large - opt)
		return 1.0 - 0.08*f
	default:
		return 0.92
	}
}

// PointToPoint returns the time for one rank to push total bytes through its
// NIC using messages of msgBytes each (the engine packs sends into ~4 MB
// messages by default).
func (s Spec) PointToPoint(totalBytes, msgBytes int64) float64 {
	if totalBytes <= 0 {
		return 0
	}
	if msgBytes <= 0 || msgBytes > totalBytes {
		msgBytes = totalBytes
	}
	msgs := (totalBytes + msgBytes - 1) / msgBytes
	eff := s.Efficiency(msgBytes)
	return float64(msgs)*s.IB.Latency + float64(totalBytes)/(s.IB.Bandwidth*eff)
}

// ButterflyHop returns the time of one hop of a log2(p)-hop butterfly
// exchange: the rank pushes hopBytes to its hypercube partner in messages of
// at most msgCap bytes. Aggregating p/2 destinations' payloads into one hop
// message is what lifts the exchange out of the sub-2 MB efficiency plateau
// that the p−1 all-pairs sends occupy (§VI-A1's ramp to the 4 MB optimum).
// An empty hop still costs the message latency — the hop is a synchronized
// pairwise exchange, unlike an all-pairs send that can simply be skipped.
func (s Spec) ButterflyHop(hopBytes, msgCap int64) float64 {
	if hopBytes <= 0 {
		return s.IB.Latency
	}
	if msgCap <= 0 || msgCap > hopBytes {
		msgCap = hopBytes
	}
	return s.PointToPoint(hopBytes, msgCap)
}

// PipelineTiming breaks one pipelined butterfly exchange into its parts.
// The invariant Total = WireSeconds + CodecSeconds + NVLinkSeconds −
// HiddenCodec − HiddenNVLink holds by construction: overlap can hide time,
// never create it.
type PipelineTiming struct {
	// Total is the elapsed time of the software-pipelined exchange.
	Total float64
	// WireSeconds is the sum of the sequential hop transfer times — what the
	// exchange would cost with free codec kernels — including any per-hop
	// WireExtra seconds riding the NIC alongside the hop payloads.
	WireSeconds float64
	// CodecSeconds is the total per-hop codec compute (the pre-hop encode
	// plus every hop's decode/merge/re-encode stage), hidden or not.
	CodecSeconds float64
	// HiddenCodec is the codec compute that ran under a concurrent hop
	// transfer (or an outlasting NVLink stage) and therefore does not appear
	// in Total.
	HiddenCodec float64
	// NVLinkSeconds is the total NVLink stage time (the hierarchical
	// exchange's aggregation and per-hop staging copies), hidden or not.
	// Zero for a two-resource (wire+codec) schedule.
	NVLinkSeconds float64
	// HiddenNVLink is the NVLink stage time that ran under a concurrent hop
	// transfer or codec stage and therefore does not appear in Total.
	HiddenNVLink float64
	// Stalls counts pipeline steps where a compute or NVLink stage outlasted
	// the concurrent transfer — the wire sat idle waiting.
	Stalls int64
}

// ExchangeSchedule is the input of the three-resource pipeline model
// (PipelinedExchange): per-hop wire volumes plus the codec and NVLink
// stages each hop's arrival triggers.
type ExchangeSchedule struct {
	// HopBytes is the per-hop wire profile: for a power-of-two rank count the
	// log2(p) hypercube hops, and for the generalized Bruck-style form a pre
	// cleanup hop (remainder ranks fold into their proxies), the log2(q)
	// hypercube hops, and a post cleanup hop (proxies deliver to their
	// remainder partners); cleanup hops follow the same per-hop accounting.
	HopBytes []int64
	// HopCodec[k] is the codec compute triggered by hop k's arrival — its
	// decode plus the re-encode feeding hop k+1. May be shorter than
	// HopBytes (missing entries are zero).
	HopCodec []float64
	// HopNVLink[k] is the NVLink stage triggered by hop k's arrival — the
	// received payload's staging copy plus the staging of hop k+1's
	// outgoing message. May be shorter than HopBytes.
	HopNVLink []float64
	// PreCodec is the encode of the first hop's payload; PreNVLink is the
	// intra-rank aggregation plus the first hop's send staging. Both precede
	// all communication and cannot be hidden.
	PreCodec, PreNVLink float64
	// WireExtra[k] adds seconds to hop k's transfer on the NIC resource —
	// the chunked delegate-mask allreduce rides here, filling wire idle time
	// on compute-bound steps. May be shorter than HopBytes.
	WireExtra []float64
	// MsgCap is the per-message packing cap (Options.MessageBytes).
	MsgCap int64
}

// PipelinedExchange returns the timing of one iteration's hop exchange with
// three overlappable resources — NIC transfers, codec compute, NVLink
// staging copies: hop k's transfer runs concurrently with hop k−1's codec
// stage AND hop k−1's NVLink stage, so each pipeline step costs
// max(wire_k, codec_{k−1}, nvlink_{k−1}) instead of their sum. The pre
// stages (first-hop encode and aggregation/staging) precede all
// communication; the last hop's codec and NVLink stages have only each
// other left to overlap. Hidden time is attributed per step to the
// non-pacing resources: whichever resource paces the step is exposed, the
// others ran entirely under it.
func (s Spec) PipelinedExchange(sched ExchangeSchedule) PipelineTiming {
	pt := PipelineTiming{
		Total:         sched.PreCodec + sched.PreNVLink,
		CodecSeconds:  sched.PreCodec,
		NVLinkSeconds: sched.PreNVLink,
	}
	var prevC, prevN float64 // the previous hop's codec/NVLink stages, still in flight
	for k, b := range sched.HopBytes {
		w := s.ButterflyHop(b, sched.MsgCap)
		if k < len(sched.WireExtra) {
			w += sched.WireExtra[k]
		}
		pt.WireSeconds += w
		var c, n float64
		if k < len(sched.HopCodec) {
			c = sched.HopCodec[k]
			pt.CodecSeconds += c
		}
		if k < len(sched.HopNVLink) {
			n = sched.HopNVLink[k]
			pt.NVLinkSeconds += n
		}
		if k == 0 {
			pt.Total += w
		} else {
			switch {
			case w >= prevC && w >= prevN: // wire paces: both stages fully hidden
				pt.Total += w
				pt.HiddenCodec += prevC
				pt.HiddenNVLink += prevN
			case prevC >= prevN: // codec paces: wire's worth of it hides, NVLink fully
				pt.Total += prevC
				pt.HiddenCodec += w
				pt.HiddenNVLink += prevN
				pt.Stalls++
			default: // NVLink paces
				pt.Total += prevN
				pt.HiddenCodec += prevC
				pt.HiddenNVLink += w
				pt.Stalls++
			}
		}
		prevC, prevN = c, n
	}
	// Tail: the last hop's codec and NVLink stages overlap only each other.
	if prevC >= prevN {
		pt.Total += prevC
		pt.HiddenNVLink += prevN
	} else {
		pt.Total += prevN
		pt.HiddenCodec += prevC
	}
	return pt
}

// Staging returns the NVLink copy time for moving bytes between GPU and CPU
// memory (charged once per side per remote transfer when GPUDirectRDMA is
// false).
func (s Spec) Staging(bytes int64) float64 {
	if bytes <= 0 || s.GPUDirectRDMA {
		return 0
	}
	return s.NVLink.Latency + float64(bytes)/s.NVLink.Bandwidth
}

// LocalReduce returns the time for the local phase of the delegate mask
// reduction (§V-A): pgpu-1 peer GPUs push their masks to GPU0 over NVLink,
// GPU0 ORs them in parallel (the OR cost is charged as GPU compute by the
// engine; this covers the data movement).
func (s Spec) LocalReduce(maskBytes int64, gpusPerRank int) float64 {
	if gpusPerRank <= 1 || maskBytes <= 0 {
		return 0
	}
	// Pushes serialize on GPU0's ingress link.
	return s.NVLink.Latency + float64(gpusPerRank-1)*float64(maskBytes)/s.NVLink.Bandwidth
}

// LocalBroadcast mirrors LocalReduce for distributing the reduced mask back
// to peer GPUs.
func (s Spec) LocalBroadcast(maskBytes int64, gpusPerRank int) float64 {
	return s.LocalReduce(maskBytes, gpusPerRank)
}

// Allreduce returns the time of the global delegate-mask OR-reduction across
// ranks, tree-structured (2·log2(ranks) stages of maskBytes each, matching
// the paper's d·log(p_rank)/4·g accounting). blocking selects MPI_Allreduce
// vs MPI_Iallreduce; the non-blocking variant pays IallreducePenalty on
// bandwidth but may be overlapped by the engine.
func (s Spec) Allreduce(maskBytes int64, ranks int, blocking bool) float64 {
	if ranks <= 1 || maskBytes <= 0 {
		return 0
	}
	stages := 2 * math.Ceil(math.Log2(float64(ranks)))
	eff := s.Efficiency(maskBytes)
	bw := s.IB.Bandwidth * eff
	if !blocking {
		bw /= s.IallreducePenalty
	}
	return stages * (s.IB.Latency + float64(maskBytes)/bw)
}

// LocalExchange returns the time for the Local-All2All staging step (§V-B):
// GPUs within a rank exchange their outgoing normal-vertex bins over NVLink
// so that remote traffic only flows between same-slot GPUs.
func (s Spec) LocalExchange(bytes int64, gpusPerRank int) float64 {
	if gpusPerRank <= 1 || bytes <= 0 {
		return 0
	}
	return s.NVLink.Latency + float64(bytes)/s.NVLink.Bandwidth
}
