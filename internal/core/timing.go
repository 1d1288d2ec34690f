package core

import (
	"math"

	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
)

// This file converts counted work and bytes into simulated iteration times:
// stream combination on a GPU, the compute/communication overlap model
// (§VI-B reports ~10% total savings from overlap), and the float max
// reduction used to take per-iteration maxima across ranks.

// streamCombine merges the two cudaStream times of one GPU. The streams run
// concurrently but share SMs, so the result lies between max and sum;
// charging max plus a quarter of the min matches the partial overlap the
// paper exploits (Fig. 3).
func streamCombine(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	return a + 0.25*b
}

// iterElapsed applies the overlap model to one iteration's reduced parts.
// Normal-exchange and delegate-reduce time can hide under computation; the
// non-blocking reduction (IR) hides much more of the delegate phase, which
// is its entire point (§VI-B) — it pays for that with the Iallreduce
// bandwidth penalty charged in simnet.
func (e *runEnv) iterElapsed(parts metrics.Breakdown) float64 {
	f := e.opts.OverlapFactor
	hidN := f * math.Min(parts.Computation, parts.RemoteNormal)
	remaining := parts.Computation - hidN
	fD := f
	if !e.opts.BlockingReduce {
		fD = 0.85
	}
	hidD := fD * math.Min(remaining, parts.RemoteDelegate)
	return parts.Sum() - hidN - hidD + e.syncOverhead()
}

// syncOverhead charges the per-iteration control collectives (termination
// flag, workload sums) as small tree-latency messages. This fixed cost is
// what dominates long-tail graphs (§VI-D: per-iteration time "not much more
// than the per-iteration overhead").
func (e *runEnv) syncOverhead() float64 {
	ranks := e.shape.Ranks()
	if ranks <= 1 {
		return 0
	}
	stages := 2 * math.Ceil(math.Log2(float64(ranks)))
	return 2 * stages * e.opts.Net.IB.Latency
}

// hierExchange reports whether the exchange has its intra-rank tier: with
// more than one GPU per rank, the rank's GPUs aggregate their bins over
// NVLink into one merged message per destination rank, and the NVLink copies
// ride the exchange schedule instead of LocalComm. With one GPU per rank
// there is nothing to aggregate, and the staging copies are charged serially
// in LocalComm.
func (e *runEnv) hierExchange() bool {
	return e.shape.GPUsPerRank > 1
}

// aggregationBytes is the NVLink volume of the hierarchical intra-rank
// aggregation for ownRaw originated fixed-width bytes: each GPU's share
// bound for the rank's merge lanes crosses NVLink once — (pgpu−1)/pgpu of
// the originated volume — and twice when Local-All2All is off, where the
// copies bounce through CPU staging buffers instead of peer-to-peer (the
// L option keeps its meaning under the hierarchy).
func (e *runEnv) aggregationBytes(ownRaw int64) int64 {
	pgpu := int64(e.shape.GPUsPerRank)
	if pgpu <= 1 || ownRaw <= 0 {
		return 0
	}
	agg := ownRaw * (pgpu - 1) / pgpu
	if !e.opts.LocalAll2All {
		agg *= 2
	}
	return agg
}

// effMessageBytes estimates the per-message payload of the normal exchange:
// total volume divided by the number of messages a rank sends — one merged
// message per destination rank, whatever the GPU count (§V-B's packed sends
// with the intra-rank aggregation in front) — capped at the configured
// packing size.
func (e *runEnv) effMessageBytes(totalBytes int64) int64 {
	if totalBytes <= 0 {
		return 0
	}
	pairs := e.effPairs()
	// Ceiling split: the volume divides across exactly `pairs` messages, so
	// the implied message count (ceil(total/msg) inside PointToPoint) is the
	// pair count itself — a floor here would under-size the message and
	// charge a spurious extra latency floor whenever the volume does not
	// divide evenly, pure quantization noise at a pair count of p_rank−1.
	msg := (totalBytes + pairs - 1) / pairs
	if msg < 1 {
		msg = 1
	}
	if msg > e.opts.MessageBytes {
		msg = e.opts.MessageBytes
	}
	return msg
}

// effPairs counts the messages a rank sends per all-pairs round — one per
// other rank — the denominator of effMessageBytes.
func (e *runEnv) effPairs() int64 {
	return max(int64(e.shape.Ranks())-1, 1)
}

// floatBits returns the bit patterns of a non-negative float vector in the
// caller-owned scratch (grown and returned for reuse). Non-negative IEEE-754
// doubles order identically to their bit patterns, so an int64 max-reduce of
// the result is the element-wise float maximum; bitsToFloats converts back.
func floatBits(vals []float64, scratch []int64) []int64 {
	bits := grownInt64(scratch, len(vals))
	for i, v := range vals {
		bits[i] = int64(math.Float64bits(v))
	}
	return bits
}

func bitsToFloats(bits []int64, vals []float64) {
	for i := range vals {
		vals[i] = math.Float64frombits(uint64(bits[i]))
	}
}

// maxFloatsAllreduce reduces a non-negative float vector to its element-wise
// maximum across ranks in a rendezvous of its own (the superstep loop folds
// the same reduction into its post-exchange rendezvous instead).
func maxFloatsAllreduce(comm *mpi.Comm, vals []float64, scratch []int64) []int64 {
	bits := floatBits(vals, scratch)
	comm.AllreduceMax(bits)
	bitsToFloats(bits, vals)
	return bits
}
