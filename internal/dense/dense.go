// Package dense is the iteration loop of the dense pair programs — PageRank
// and connected components, the §VI-D generalizations of the BFS substrate:
// every vertex is active every iteration, delegates carry 64-bit state
// combined by a global reduction, and normal-vertex contributions cross GPUs
// as (id, value) pairs over the nn edges.
//
// The loop owns everything the programs share: option defaults, the fault
// injection sites, the timing model and its cross-rank reduction, and the
// statistics. It runs on core's phase driver (core.Drive), which runs every
// BFS superstep, so there is one superstep loop. An iteration is two phases,
// each ending in a rendezvous at which the driver folds what the ranks left:
//
//	Push, pair posts | delegate fold | pair reads (Apply), Update | timing and convergence fold, Done
//
// The pairs cross ranks in core's pair round (core.PairRound), the one the BFS
// tree resolution uses: raw wire pair blocks, so a corrupted message is a
// typed wire.ErrCorrupt, never a wrong score or label. A program supplies the
// rest through Rank: its push kernels, its sections (a min over labels and a
// count of changes, a rank-ordered sum over scores), how an arriving pair
// folds in, and its update and convergence test.
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

// Charge prices a kernel on the GPU model with work amplification applied.
func (o *Options) Charge(c simgpu.KernelCost) float64 {
	c.Edges = int64(float64(c.Edges) * o.WorkAmplification)
	c.Vertices = int64(float64(c.Vertices) * o.WorkAmplification)
	return o.GPU.Time(c)
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

// Sections is what a rank hands the driver to fold across ranks, element by
// element, and what every rank reads back folded; every rank passes each kind
// at the same length. Sum adds in rank order — floating-point addition is not
// associative, so a fixed order keeps every score bit-identical run to run —
// Min takes the minimum and Count adds.
type Sections struct {
	Sum   []float64
	Min   []int64
	Count []int64
}

// fold folds the sections of every rank's side, of(side), into f's storage.
func (f *Sections) fold(sides []side, of func(*side) Sections) {
	first := of(&sides[0])
	f.Sum = append(f.Sum[:0], make([]float64, len(first.Sum))...)
	f.Min = append(f.Min[:0], first.Min...)
	f.Count = append(f.Count[:0], make([]int64, len(first.Count))...)
	for i := range sides {
		s := of(&sides[i])
		for j, v := range s.Sum {
			f.Sum[j] += v
		}
		for j, v := range s.Min {
			f.Min[j] = min(f.Min[j], v)
		}
		for j, v := range s.Count {
			f.Count[j] += v
		}
	}
}

// Rank is one rank's side of a dense program. Its methods are called once per
// iteration, in the order listed, each in the phase the package comment
// places it.
type Rank interface {
	// Push clears the rank's accumulators and pair bins and runs its GPUs'
	// push kernels. It returns the slowest GPU's modelled seconds and its
	// GPUs' delegate contributions folded locally, for the driver's fold
	// across ranks (the §V-A reduction with 64-bit payloads).
	Push() (comp float64, delegates Sections)
	// Bins returns the rank's outgoing pair bins, one per destination GPU,
	// which Push filled GPU by GPU: a destination's bin lists the pairs of the
	// rank's first GPU, then its second's, and so on.
	Bins() *frontier.PairBins
	// Apply folds pairs arriving for local slot s into its accumulator.
	Apply(s int, prs []frontier.Pair)
	// Update applies the iteration's contributions — the pairs applied, and
	// delegates, the ranks' Push sections folded — to the rank's vertices and
	// delegate replica, and returns its convergence sections.
	Update(delegates Sections) (converge Sections)
	// Done reports from the ranks' convergence sections folded whether the
	// program is done; every rank answers alike, so the driver asks one.
	Done(converge Sections) bool
}

// Run iterates the program whose per-rank sides are ranks until it reports
// done or the iteration budget runs out. Besides the statistics it returns
// whether the program finished by its own account.
func Run(program string, sg *partition.Subgraphs, shape core.ClusterShape, opts Options, ranks []Rank) (stats Stats, done bool, err error) {
	l := &loop{shape: shape, opts: &opts, d: sg.D(), world: mpi.NewWorld(shape.Ranks()), ranks: ranks, sides: make([]side, len(ranks))}
	for r, rs := range ranks {
		l.sides[r].round = core.NewPairRound(shape, rs.Bins())
	}
	// Message tags are plain iteration numbers here.
	iterTag := func(tag int) (int, string) { return tag, faults.SiteExchange }
	if err := core.Drive(l.world, opts.Inject, iterTag, sg.N, l.step, l.next); err != nil {
		return Stats{}, false, err
	}
	return l.stats, l.done, nil
}

// The two phases of an iteration.
const (
	phasePush   = iota // Push and the pair posts
	phaseUpdate        // the pair reads, Update and the timing
)

// loop is Run's state between phases: the ranks' sides of the iteration in
// flight, what the driver folded of them, and the statistics.
type loop struct {
	shape               core.ClusterShape
	opts                *Options
	d                   int64
	world               *mpi.World
	ranks               []Rank
	sides               []side
	delegates, converge Sections
	iter                int
	stats               Stats
	done                bool
}

// side is one rank's pair round and what it hands the driver in an
// iteration: its delegate and convergence sections, and its timing components
// (model time) and traffic, whose maxima and sum the driver takes.
type side struct {
	round      *core.PairRound
	dels, conv Sections
	parts      metrics.Breakdown
	traffic    int64
}

// step is rank's share of phase ph of iteration l.iter.
func (l *loop) step(ph, rank int) {
	r, sd, comm := l.ranks[rank], &l.sides[rank], l.world.Rank(rank)
	o, d, iter := l.opts, l.d, l.iter
	if ph == phasePush {
		// ---- Fault injection (chaos testing): see core's bspLoop.step.
		if in := o.Inject; in != nil {
			in.Crash(rank, iter, faults.SiteIter)
		}
		sd.parts.Computation, sd.dels = r.Push()
		sd.round.Post(comm, iter)
		return
	}
	// ---- Normal pair exchange: core's pair round, one message of raw pair
	// blocks per destination rank. A message is charged as the fixed-width
	// layout the model prices — 12 bytes per pair plus a 4-byte count per
	// slot — whatever the blocks' framing weighs on the host.
	sent, recv, intra, msgs := sd.round.Read(comm, iter, r.Apply)
	sd.conv = r.Update(l.delegates)

	// ---- Timing (model): an injected stall is timing skew only, results
	// stay bit-identical.
	net, amp := o.Net, o.WorkAmplification
	pgpu := l.shape.GPUsPerRank
	slotBytes := 4 * int64(pgpu) * msgs
	sentBytes, recvBytes := sent+slotBytes, recv+slotBytes
	if in := o.Inject; in != nil {
		sd.parts.Computation += in.Stall(rank, iter, faults.SiteIter)
	}
	aSent := int64(float64(sentBytes) * amp)
	aState := int64(float64(d*8) * amp)
	sd.parts.LocalComm = net.Staging(aSent) + net.Staging(int64(float64(recvBytes)*amp))
	sd.parts.RemoteDelegate = 0
	if d > 0 {
		sd.parts.LocalComm += net.LocalReduce(aState, pgpu) + net.LocalBroadcast(aState, pgpu)
		sd.parts.RemoteDelegate = net.Allreduce(aState, l.shape.Ranks(), true)
	}
	sd.parts.RemoteNormal = net.PointToPoint(aSent, 4<<20)
	sd.traffic = sentBytes + intra
}

// next folds at the rendezvous that ended phase ph (-1: none yet) and returns
// the next phase: after the push the delegate sections; after the update the
// timing maxima and traffic into the statistics, and the convergence sections.
func (l *loop) next(ph int) int {
	switch ph {
	case phasePush:
		l.delegates.fold(l.sides, func(sd *side) Sections { return sd.dels })
		return phaseUpdate
	case phaseUpdate:
		var parts metrics.Breakdown
		var traffic int64
		for _, sd := range l.sides {
			p := sd.parts
			parts.Computation = max(parts.Computation, p.Computation)
			parts.LocalComm = max(parts.LocalComm, p.LocalComm)
			parts.RemoteNormal = max(parts.RemoteNormal, p.RemoteNormal)
			parts.RemoteDelegate = max(parts.RemoteDelegate, p.RemoteDelegate)
			traffic += sd.traffic
		}
		st := &l.stats
		st.SimSeconds += parts.Sum() - 0.35*math.Min(parts.Computation, parts.RemoteNormal+parts.RemoteDelegate)
		st.Parts.Add(parts)
		st.Iterations++
		st.BytesNormal += traffic
		st.BytesDelegate += l.d * 8
		l.converge.fold(l.sides, func(sd *side) Sections { return sd.conv })
		l.done = l.ranks[0].Done(l.converge)
		l.iter++
	}
	if l.done || l.iter >= l.opts.MaxIterations {
		return -1
	}
	return phasePush
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
