// Package dense is the iteration loop of the dense pair programs — PageRank
// and connected components, the §VI-D generalizations of the BFS substrate:
// every vertex is active every iteration, delegates carry 64-bit state
// combined by a global reduction, and normal-vertex contributions cross GPUs
// as (id, value) pairs over the nn edges.
//
// The loop owns everything the programs share: option defaults, the fault
// injection sites, the timing model and its cross-rank reduction, and the
// statistics. The pairs themselves cross ranks in core's pair round
// (core.ExchangePairs), the one the BFS tree resolution uses: raw wire pair
// blocks, so a corrupted message is a typed wire.ErrCorrupt, never a wrong
// score or label. A program supplies the rest through Rank: its push kernels,
// its delegate reduction (a min over labels, a rank-ordered sum over scores),
// how an arriving pair folds in, and its update/convergence step.
//
// This is deliberately not core's superstep loop: a dense program has no
// frontier, no OR-able delegate proposal and no exchange policy, and its
// reductions (min, float sum) do not fit the fused reduce a BFS superstep
// rides.
package dense

import (
	"fmt"
	"math"

	"gcbfs/internal/core"
	"gcbfs/internal/faults"
	"gcbfs/internal/frontier"
	"gcbfs/internal/metrics"
	"gcbfs/internal/mpi"
	"gcbfs/internal/partition"
	"gcbfs/internal/simgpu"
	"gcbfs/internal/simnet"
)

// Options is what every dense program configures the same way; a program's
// own Options embeds it.
type Options struct {
	// MaxIterations bounds the run (each program has its own default).
	MaxIterations int
	// WorkAmplification scales the timing model (see core.Options).
	WorkAmplification float64
	// Inject arms deterministic fault injection (see core.Options.Inject);
	// nil keeps every decision point on the fault-free fast path.
	Inject *faults.Injector

	GPU simgpu.Spec
	Net simnet.Spec
}

// Check validates the cluster shape against the partition and fills o's unset
// fields; maxIterations is the calling program's default budget.
func (o *Options) Check(program string, sg *partition.Subgraphs, shape core.ClusterShape, maxIterations int) error {
	if err := shape.Validate(); err != nil {
		return err
	}
	if sg.Cfg != shape.PartitionConfig() {
		return fmt.Errorf("%s: graph partitioned for %+v, shape needs %+v",
			program, sg.Cfg, shape.PartitionConfig())
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = maxIterations
	}
	if o.WorkAmplification <= 0 {
		o.WorkAmplification = 1
	}
	if o.GPU.EdgeRateMerge == 0 {
		o.GPU = simgpu.TeslaP100()
	}
	if o.Net.IB.Bandwidth == 0 {
		o.Net = simnet.Ray()
	}
	return nil
}

// Charge runs a kernel cost through the device model with work amplification
// applied.
func (o *Options) Charge(dev *simgpu.Device, c simgpu.KernelCost) float64 {
	c.Edges = int64(float64(c.Edges) * o.WorkAmplification)
	c.Vertices = int64(float64(c.Vertices) * o.WorkAmplification)
	return dev.Charge(c)
}

// Stats is the modelled cost of a run; a program's Result embeds it.
type Stats struct {
	Iterations int
	SimSeconds float64
	Parts      metrics.Breakdown
	// BytesNormal/BytesDelegate are total exchange volumes, illustrating
	// the §VI-D traffic growth versus BFS (12-byte pairs and 8-byte delegate
	// slots vs 4 bytes and 1 bit).
	BytesNormal   int64
	BytesDelegate int64
}

// Rank is one rank's side of a dense program. Its methods are called by the
// rank's own goroutine, once per iteration, in the order listed.
type Rank interface {
	// Push clears the rank's accumulators and pair bins and runs its GPUs'
	// push kernels, returning the slowest GPU's modelled seconds.
	Push() float64
	// ReduceDelegates folds the GPUs' delegate contributions locally, then
	// across ranks (the §V-A reduction with 64-bit payloads).
	ReduceDelegates(comm *mpi.Comm)
	// Bins returns the rank's outgoing pair bins, one per destination GPU,
	// which Push filled GPU by GPU: a destination's bin lists the pairs of the
	// rank's first GPU, then its second's, and so on.
	Bins() *frontier.PairBins
	// Apply folds pairs arriving for local slot s into its accumulator.
	Apply(s int, prs []frontier.Pair)
	// Update applies the iteration's contributions to the rank's vertices
	// and its delegate replica, and reports whether the program is done —
	// the same answer on every rank.
	Update(comm *mpi.Comm) (done bool)
}

// Run iterates the program whose per-rank sides are ranks until it reports
// done or the iteration budget runs out. Besides the statistics it returns
// whether the program finished by its own account.
func Run(program string, sg *partition.Subgraphs, shape core.ClusterShape, opts Options, ranks []Rank) (stats Stats, done bool, err error) {
	d := sg.D()
	pgpu := shape.GPUsPerRank
	prank := shape.Ranks()
	net, amp := opts.Net, opts.WorkAmplification
	// Message tags are plain iteration numbers here.
	iterTag := func(tag int) (int, string) { return tag, faults.SiteExchange }
	// stats and done are written by each iteration's closer, on the last rank
	// to reach its timing reduce, and read after the ranks join.
	err = core.RunRanks(mpi.NewWorld(prank), opts.Inject, iterTag, func(rank int, comm *mpi.Comm) {
		r := ranks[rank]
		for iter := 0; iter < opts.MaxIterations; iter++ {
			// ---- Fault injection (chaos testing): see core's runRank.
			if in := opts.Inject; in != nil {
				in.Crash(rank, iter, faults.SiteIter)
			}
			comp := r.Push()
			r.ReduceDelegates(comm)

			// ---- Normal pair exchange: core's pair round, one message of raw
			// pair blocks per destination rank. A message is charged as the
			// fixed-width layout the model prices — 12 bytes per pair plus a
			// 4-byte count per slot — whatever the blocks' framing weighs on
			// the host.
			sent, recv, intra, msgs := core.ExchangePairs(comm, shape, r.Bins(), iter, r.Apply)
			slotBytes := 4 * int64(pgpu) * msgs
			sentBytes, recvBytes := sent+slotBytes, recv+slotBytes

			fin := r.Update(comm)

			// ---- Timing (model): this rank's components, then their maxima
			// across ranks and the global traffic sum in one reduce, whose
			// closer accumulates the iteration. Every rank's fin is the same.
			// Injected stall: timing skew only, results stay bit-identical.
			if in := opts.Inject; in != nil {
				comp += in.Stall(rank, iter, faults.SiteIter)
			}
			aSent := int64(float64(sentBytes) * amp)
			aState := int64(float64(d*8) * amp)
			local := net.Staging(aSent) + net.Staging(int64(float64(recvBytes)*amp))
			var remoteDelegate float64
			if d > 0 {
				local += net.LocalReduce(aState, pgpu) + net.LocalBroadcast(aState, pgpu)
				remoteDelegate = net.Allreduce(aState, prank, true)
			}
			remoteNormal := net.PointToPoint(aSent, 4<<20)
			vec := []int64{int64(math.Float64bits(comp)), int64(math.Float64bits(local)),
				int64(math.Float64bits(remoteNormal)), int64(math.Float64bits(remoteDelegate))}
			comm.AllreduceFusedClose(nil, false, vec, []int64{sentBytes + intra}, func(maxima, traffic []int64) {
				parts := metrics.Breakdown{
					Computation:    math.Float64frombits(uint64(maxima[0])),
					LocalComm:      math.Float64frombits(uint64(maxima[1])),
					RemoteNormal:   math.Float64frombits(uint64(maxima[2])),
					RemoteDelegate: math.Float64frombits(uint64(maxima[3])),
				}
				stats.SimSeconds += parts.Sum() - 0.35*math.Min(parts.Computation,
					parts.RemoteNormal+parts.RemoteDelegate)
				stats.Parts.Add(parts)
				stats.Iterations++
				stats.BytesNormal += traffic[0]
				stats.BytesDelegate += d * 8
				done = fin
			})
			if fin {
				break
			}
		}
	})
	return stats, done, err
}

// Gather assembles a global per-vertex array from each GPU's local slots
// (local(g), read for its normal vertices) and a delegate replica.
func Gather[T any](sg *partition.Subgraphs, local func(gpu int) []T, delegates []T) []T {
	out := make([]T, sg.N)
	for g, pg := range sg.GPUs {
		vals := local(g)
		for slot := int64(0); slot < pg.NumLocal; slot++ {
			v := sg.Cfg.GlobalID(uint32(slot), pg.Rank, pg.Slot)
			if !sg.Sep.IsDelegate(v) {
				out[v] = vals[slot]
			}
		}
	}
	for di, v := range sg.Sep.DelegateGlobal {
		out[v] = delegates[di]
	}
	return out
}
